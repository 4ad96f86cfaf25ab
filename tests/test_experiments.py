import logging

import numpy as np
import pytest

from grassket import experiments, grassmann
from grassket.experiments import (DENSE_ORACLE_MAX_DIM, CurvePoint,
                                  OverlapCurve, overlap_curve,
                                  overlap_ratio_report, ranked_theta, rho_to_k,
                                  run_baseline, verify_lemma)
from grassket.grassmann import (MetricKind, OrthonormalBasis, haar_rows, metric,
                                overlap, overlap_variance, principal_angles,
                                similarity)
from grassket.masks import (SparseMask, mask_basis, mask_eigenspace_overlap,
                            mask_from_rng, topk_magnitude_mask)
from grassket.operators import (CountingOperator, DenseOperator, eigh_by_magnitude,
                                make_planted_operator)
from grassket.sketch import draw_measurements, seigh, truncate


def test_rho_to_k():
    assert rho_to_k(2048, 0.05) == 102
    assert rho_to_k(2048, 0.2) == 410
    assert rho_to_k(2048, 0.4) == 819
    assert rho_to_k(16, 0.01) == 1   # floor at one coordinate
    assert rho_to_k(100, 1.0) == 100
    with pytest.raises(ValueError):
        rho_to_k(100, 0.0)


def test_run_baseline_full_ratio_is_exactly_one():
    result = run_baseline([12], [1.0], ["OO", "OM", "MM"], [MetricKind.OVERLAP],
                          samples=5, seed=0)
    for row in result.rows:
        assert row.mean == 1.0
        assert row.std == 0.0
        assert row.median == 1.0


def test_run_baseline_reproducible():
    kwargs = dict(dim_grid=[32, 64], rho_grid=[0.2], modalities=["OO", "MM"],
                  metrics=[MetricKind.OVERLAP, MetricKind.GEODESIC],
                  samples=8, seed=11)
    assert run_baseline(**kwargs) == run_baseline(**kwargs)


def test_run_baseline_percentiles_ordered():
    result = run_baseline([64], [0.1, 0.3], ["OO", "OM"],
                          [MetricKind.PROJECTION_F], samples=25, seed=3)
    for row in result.rows:
        assert row.p5 <= row.median <= row.p95
        assert row.samples == 25


def test_run_baseline_overlap_tracks_ratio():
    result = run_baseline([128, 256], [0.4, 0.05], ["OO"], [MetricKind.OVERLAP],
                          samples=50, seed=5)
    for row in result.rows:
        assert row.mean == pytest.approx(row.rho, rel=0.2)


def test_run_baseline_mask_modality_has_larger_geodesic_variance():
    cells = [(64, 0.2), (128, 0.1), (128, 0.2), (256, 0.05), (256, 0.1)]
    wins = 0
    for dim, rho in cells:
        result = run_baseline([dim], [rho], ["OO", "MM"], [MetricKind.GEODESIC],
                              samples=200, seed=17)
        oo = result.cell("OO", MetricKind.GEODESIC, dim, rho)
        mm = result.cell("MM", MetricKind.GEODESIC, dim, rho)
        wins += mm.std > oo.std
    assert wins >= 4


def test_run_baseline_validation():
    with pytest.raises(ValueError):
        run_baseline([], [0.1], ["OO"], [MetricKind.OVERLAP], 5, 0)
    with pytest.raises(ValueError):
        run_baseline([16], [0.1], ["XX"], [MetricKind.OVERLAP], 5, 0)
    with pytest.raises(ValueError):
        run_baseline([16], [0.1], ["OO"], [MetricKind.OVERLAP], 1, 0)
    for dim in (0, -5):
        with pytest.raises(ValueError, match=f"dimension must be positive, got {dim}"):
            run_baseline([16, dim], [0.1], ["OO"], [MetricKind.OVERLAP], 5, 0)


def test_verify_lemma_passes():
    check = verify_lemma(512, 26, samples=200, seed=1)
    assert check.passed
    assert check.mean == pytest.approx(26 / 512, abs=4 * check.stderr + 1e-12)
    assert verify_lemma(128, 6, samples=500, seed=2).passed


def chi2_band(dof, z=4.0):
    """Wilson-Hilferty quantiles of chi2_dof / dof at z standard deviations."""
    spread = np.sqrt(2.0 / (9.0 * dof))
    return tuple((1.0 - 2.0 / (9.0 * dof) + sign * z * spread) ** 3 for sign in (-1, 1))


@pytest.mark.parametrize("modality, variance", [
    ("OO", 2 * 1946**2 / (2048**2 * 2047 * 2050)),  # Haar, closed form
    ("OM", 2 * 1946**2 / (2048**2 * 2047 * 2050)),
    ("MM", 1946**2 / (2048**2 * 2047)),             # hypergeometric count / k
], ids=["OO", "OM", "MM"])
def test_one_draw_samples_follow_the_chance_law(modality, variance):
    # mean within 4 standard errors of k/D; sample variance inside the
    # 4-sigma chi2 band around the closed form (the hypergeometric count's
    # excess kurtosis, about 1/5 at mean k^2/D = 5.1, widens the true spread
    # of the MM variance by under 5%)
    dim, k = 2048, 102
    samples = 4000 if modality == "MM" else 300
    cell = run_baseline([dim], [0.05], [modality], [MetricKind.OVERLAP],
                        samples=samples, seed=29).rows[0]
    assert cell.k == k
    if modality != "MM":
        assert variance == overlap_variance(dim, k)
    assert abs(cell.mean - k / dim) <= 4.0 * np.sqrt(variance / samples)
    low, high = chi2_band(samples - 1)
    assert low <= cell.std**2 / variance <= high


@pytest.mark.parametrize("dim, k", [(24, 20), (40, 13)], ids=["k>D-k", "k<D-k"])
def test_haar_rows_follow_the_chance_law(dim, k):
    # at k > D - k the Bartlett factor under the k read rows is trapezoidal
    samples = 4000
    rng = np.random.default_rng(43)
    values = np.array([np.sum(haar_rows(rng, dim, k) ** 2) / k for _ in range(samples)])
    variance = overlap_variance(dim, k)
    assert abs(values.mean() - k / dim) <= 4.0 * np.sqrt(variance / samples)
    low, high = chi2_band(samples - 1)
    assert low <= np.var(values, ddof=1) / variance <= high


@pytest.mark.parametrize("dim", [2, 3, 7, 24, 100])
def test_haar_rows_one_short_of_full_dimension(dim):
    # a one-row Bartlett factor: the k x k block of an orthonormal basis with
    # one row left out has k - 1 unit singular values and one in [0, 1]
    k = dim - 1
    rng = np.random.default_rng(dim)
    for _ in range(50):
        cross = haar_rows(rng, dim, k)
        assert cross.shape == (k, k) and np.all(np.isfinite(cross))
        svals = np.linalg.svd(cross, compute_uv=False)
        assert np.all(svals <= 1.0 + 1e-12)
        assert np.all(svals[:-1] >= 1.0 - 1e-12)
        assert k - 1 - 1e-12 <= np.sum(cross * cross) <= k + 1e-12


class _SpyGenerator:
    """A Generator that records how many numbers each draw returns."""

    def __init__(self, rng):
        self._rng = rng
        self.sizes = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.sizes.append(np.size(out))
            return out
        return draw


def test_haar_side_pairs_never_draw_the_dimension(monkeypatch):
    # a pair with a Haar side costs O(k^2) numbers and a stand-in of at most
    # 2k rows, however large D is; a D x k Gaussian here would be 20 k^2
    dim, k = 2048, 102
    generators, stand_in_rows = [], []
    real_qr_rows, real_default_rng = grassmann.qr_rows, np.random.default_rng

    def spy_qr_rows(matrix, rows):
        stand_in_rows.append(len(matrix))
        return real_qr_rows(matrix, rows)

    def spy_default_rng(seed):
        generators.append(_SpyGenerator(real_default_rng(seed)))
        return generators[-1]

    monkeypatch.setattr(grassmann, "qr_rows", spy_qr_rows)
    for modality in ("OO", "OM"):
        generators.append(_SpyGenerator(real_default_rng(7)))
        experiments._pair_sample(modality, MetricKind.GEODESIC, generators[-1], dim, k)
    monkeypatch.setattr(np.random, "default_rng", spy_default_rng)
    verify_lemma(dim, k, samples=30, seed=7)

    sizes = [size for generator in generators for size in generator.sizes]
    assert len(generators) == 3 and all(g.sizes for g in generators)
    assert max(sizes) <= 2 * k * k
    assert len(stand_in_rows) == 32 and max(stand_in_rows) <= 2 * k


def test_mask_pairs_match_the_dense_embedding_exactly():
    rng = np.random.default_rng(4)
    for _ in range(300):
        dim = int(rng.integers(1, 200))
        k = int(rng.integers(1, dim + 1))
        seed = int(rng.integers(2**63))
        draws = np.random.default_rng(seed)
        b1 = mask_basis(mask_from_rng(draws, dim, k))
        b2 = mask_basis(mask_from_rng(draws, dim, k))
        geodesic = metric(MetricKind.GEODESIC, principal_angles(b1, b2))
        dense = {MetricKind.OVERLAP: overlap(b1, b2),
                 MetricKind.GEODESIC: similarity(MetricKind.GEODESIC, geodesic, k)}
        for kind, value in dense.items():
            sample = experiments._pair_sample("MM", kind, np.random.default_rng(seed),
                                              dim, k)
            assert sample == value


def test_verify_lemma_z_uses_the_closed_form_variance():
    check = verify_lemma(512, 26, samples=60, seed=8)
    stderr = np.sqrt(overlap_variance(512, 26) / 60)
    assert check.z == pytest.approx((check.mean - 26 / 512) / stderr, rel=1e-12)
    assert verify_lemma(24, 24, samples=30, seed=1).z == 0.0
    with pytest.raises(ValueError):
        verify_lemma(24, 25, samples=30, seed=1)


def test_verify_lemma_full_dimension():
    check = verify_lemma(24, 24, samples=50, seed=3)
    assert check.passed
    assert check.mean == pytest.approx(1.0, abs=1e-12)
    assert check.stderr <= 1e-13


def test_verify_lemma_needs_enough_samples():
    with pytest.raises(ValueError):
        verify_lemma(64, 4, samples=10, seed=0)


def test_blas_threads_pinned_by_cell_k(monkeypatch):
    setter = experiments._openblas_thread_setter()
    if setter is None:
        pytest.skip("numpy links no OpenBLAS with a per-thread setting")

    def threads():
        count = setter(1)
        setter(count)
        return count

    seen = []
    pair_sample, sketch_eigh = experiments._pair_sample, experiments.seigh

    def pair_spy(modality, kind, rng, dim, k):
        seen.append((k, threads()))
        return pair_sample(modality, kind, rng, dim, k)

    def seigh_spy(op, ensemble):
        seen.append(("seigh", threads()))
        return sketch_eigh(op, ensemble)

    monkeypatch.setattr(experiments, "_pair_sample", pair_spy)
    monkeypatch.setattr(experiments, "seigh", seigh_spy)
    before = threads()
    cap = experiments.ONE_THREAD_MAX_K
    run_baseline([2048], [0.05], ["OO"], [MetricKind.OVERLAP], samples=2, seed=0)
    verify_lemma(2048, 102, samples=30, seed=0)
    run_baseline([2 * (cap + 1)], [0.5], ["OO"], [MetricKind.OVERLAP], samples=2, seed=0)
    op = make_planted_operator(300, np.arange(20, 0, -1.0), None, 0.0, seed=1)
    overlap_curve(op, ranked_theta(300, np.arange(20), seed=2), 20, 41, 5, seed=3)
    assert seen == [(102, 1)] * 32 + [(cap + 1, before)] * 2 + [("seigh", before)]
    assert threads() == before

    def failing(modality, kind, rng, dim, k):
        seen.append((k, threads()))
        raise RuntimeError

    seen.clear()
    monkeypatch.setattr(experiments, "_pair_sample", failing)
    with pytest.raises(RuntimeError):
        verify_lemma(2048, 102, samples=30, seed=0)
    assert seen == [(102, 1)]
    assert threads() == before


def test_ranked_theta_controls_magnitude_ranking():
    priority = np.array([5, 2, 9, 0])
    theta = ranked_theta(12, priority, seed=4)
    for k in range(1, 5):
        mask = topk_magnitude_mask(theta, k)
        assert set(mask.indices) == set(priority[:k])


def test_overlap_curve_aligned_operator():
    dim, rank = 120, 8
    mask = SparseMask(dim, np.arange(0, 2 * rank, 2))
    op = make_planted_operator(dim, np.arange(rank, 0, -1.0), mask, 1.0, seed=0)
    theta = ranked_theta(dim, mask.indices, seed=1)
    curve = overlap_curve(op, theta, n_outer=14, n_inner=29, k_max=rank, seed=2)
    last = curve.points[-1]
    assert last.k == rank
    assert last.exact == pytest.approx(1.0, abs=1e-10)
    assert last.sketched >= 0.98
    assert all(p.baseline == p.k / dim for p in curve.points)


def test_overlap_curve_chance_level_operator():
    dim, rank = 100, 6
    exact_values, sketched_values = [], []
    for seed in range(10):
        op = make_planted_operator(dim, np.arange(rank, 0, -1.0), None, 0.0,
                                   seed=seed)
        theta = ranked_theta(dim, np.arange(rank), seed=seed + 50)
        curve = overlap_curve(op, theta, n_outer=12, n_inner=25, k_max=rank,
                              seed=seed + 100)
        exact_values.append(curve.points[-1].exact)
        sketched_values.append(curve.points[-1].sketched)
    for values in (exact_values, sketched_values):
        mean = np.mean(values)
        stderr = np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(mean - rank / dim) <= 4 * stderr


def test_overlap_curve_sketched_tracks_exact():
    dim, rank = 150, 10
    mask = SparseMask(dim, np.arange(rank))
    op = make_planted_operator(dim, np.arange(rank, 0, -1.0), mask, 0.5, seed=3)
    theta = ranked_theta(dim, mask.indices, seed=4)
    curve = overlap_curve(op, theta, n_outer=20, n_inner=41, k_max=rank, seed=5)
    gap = max(abs(p.sketched - p.exact) for p in curve.points)
    assert gap <= 0.02


def test_overlap_curve_dense_cap_skips_exact(caplog, monkeypatch):
    dim, rank = 60, 4
    op = make_planted_operator(dim, np.arange(rank, 0, -1.0), None, 0.0, seed=6)
    theta = ranked_theta(dim, np.arange(rank), seed=7)
    monkeypatch.setattr(experiments, "DENSE_ORACLE_MAX_DIM", 10)
    with caplog.at_level(logging.INFO, logger="grassket.experiments"):
        curve = overlap_curve(op, theta, n_outer=8, n_inner=17, k_max=rank, seed=8)
    assert all(np.isnan(p.exact) for p in curve.points)
    assert all(np.isfinite(p.sketched) for p in curve.points)
    assert any("dense-oracle cap" in r.message and r.levelno == logging.INFO
               for r in caplog.records)


@pytest.mark.parametrize("cap", [DENSE_ORACLE_MAX_DIM, 89],
                         ids=["exact", "above-cap"])
def test_overlap_curve_matches_per_k_definition(cap, monkeypatch):
    dim, rank, n_outer, n_inner = 90, 10, 12, 25
    mask = SparseMask(dim, np.arange(0, 2 * rank, 2))
    op = make_planted_operator(dim, np.arange(rank, 0, -1.0), mask, 0.5, seed=14)
    theta = np.random.default_rng(15).standard_normal(dim)
    theta[7] = -theta[3]  # a magnitude tie, settled by the one ranking rule
    monkeypatch.setattr(experiments, "DENSE_ORACLE_MAX_DIM", cap)
    curve = overlap_curve(op, theta, n_outer, n_inner, k_max=rank, seed=16)
    dec = seigh(op, draw_measurements(dim, n_inner, n_outer, seed=16))
    _, vectors = eigh_by_magnitude(op.materialize())
    assert [p.k for p in curve.points] == list(range(1, rank + 1))
    for p in curve.points:
        top = topk_magnitude_mask(theta, p.k)
        sketched = mask_eigenspace_overlap(top, truncate(dec, p.k).eigenbasis(), p.k)
        assert abs(p.sketched - sketched) <= 1e-12
        if cap < dim:
            assert np.isnan(p.exact)
        else:
            exact_basis = OrthonormalBasis(vectors[:, :p.k], check=False)
            assert abs(p.exact - mask_eigenspace_overlap(top, exact_basis, p.k)) <= 1e-12


def test_overlap_ratio_report():
    points = [CurvePoint(k=k, exact=k / 10, sketched=k / 10, baseline=k / 10)
              for k in range(1, 4)]
    curve = OverlapCurve(points=points, operator="probe", n_outer=3, n_inner=7,
                         seed=0, exact_source="dense")
    assert all(r == pytest.approx(1.0) for _, r in overlap_ratio_report(curve))


def test_overlap_ratio_report_aligned_and_blended():
    dim, rank = 100, 5
    mask = SparseMask(dim, np.arange(rank))
    theta = ranked_theta(dim, mask.indices, seed=9)
    aligned = make_planted_operator(dim, np.arange(rank, 0, -1.0), mask, 1.0, seed=10)
    curve = overlap_curve(aligned, theta, n_outer=10, n_inner=21, k_max=rank, seed=11)
    p = curve.points[-1]
    assert (p.k, p.exact / p.baseline) == (rank, pytest.approx(dim / rank, abs=1e-8))
    blended = make_planted_operator(dim, np.arange(rank, 0, -1.0), mask, 0.5, seed=12)
    curve = overlap_curve(blended, theta, n_outer=10, n_inner=21, k_max=rank, seed=13)
    p = curve.points[-1]
    assert 1.0 < p.exact / p.baseline < dim / rank


def test_overlap_curve_planted_oracle_matches_dense(monkeypatch):
    dim, rank, n_outer, n_inner = 90, 10, 12, 25
    mask = SparseMask(dim, np.arange(0, 2 * rank, 2))
    op = make_planted_operator(dim, np.arange(rank, 0, -1.0), mask, 0.5, seed=14)
    theta = np.random.default_rng(15).standard_normal(dim)
    dense = overlap_curve(DenseOperator(op.materialize()), theta,
                          n_outer, n_inner, k_max=rank, seed=16)

    def no_dense_oracle(matrix):
        raise AssertionError("dense oracle called on a planted operator")

    monkeypatch.setattr("grassket.operators.eigh_by_magnitude", no_dense_oracle)
    planted = overlap_curve(op, theta, n_outer, n_inner, k_max=rank, seed=16)
    assert (planted.exact_source, dense.exact_source) == ("planted", "dense")
    for p, q in zip(planted.points, dense.points):
        assert abs(p.exact - q.exact) <= 1e-12


def test_overlap_curve_planted_above_cap_is_skipped(monkeypatch):
    dim, rank = 60, 4
    op = make_planted_operator(dim, np.arange(rank, 0, -1.0), None, 0.0, seed=6)
    theta = ranked_theta(dim, np.arange(rank), seed=7)
    monkeypatch.setattr(experiments, "DENSE_ORACLE_MAX_DIM", dim - 1)
    curve = overlap_curve(op, theta, n_outer=8, n_inner=17, k_max=rank, seed=8)
    assert curve.exact_source == "skipped"
    assert all(np.isnan(p.exact) for p in curve.points)


@pytest.mark.parametrize("eigvals, k_max, rank", [
    (np.arange(5, 0, -1.0), 8, 5),
    (np.array([3.0, 2.0, 0.0]), 3, 2),
], ids=["past-eigvals", "zero-eigval"])
def test_overlap_curve_refuses_k_past_planted_rank(eigvals, k_max, rank):
    op = make_planted_operator(100, eigvals, None, 0.0, seed=0)
    theta = ranked_theta(100, np.arange(len(eigvals)), seed=1)
    with pytest.raises(ValueError, match=f"k_max={k_max} exceeds the planted rank {rank};"):
        overlap_curve(op, theta, n_outer=10, n_inner=21, k_max=k_max, seed=2)


def test_overlap_curve_sees_through_counting_operator():
    # the wrapper keeps the planted oracle and rank, and counts only the sketch
    planted = make_planted_operator(100, [3.0, 2.0, 0.0], None, 0.0, seed=0)
    theta = ranked_theta(100, np.arange(3), seed=1)
    op = CountingOperator(planted)
    curve = overlap_curve(op, theta, n_outer=10, n_inner=21, k_max=2, seed=2)
    assert curve.exact_source == "planted"
    assert op.applied_columns == curve.n_inner
    refused = CountingOperator(planted)
    with pytest.raises(ValueError, match="k_max=3 exceeds the planted rank 2;"):
        overlap_curve(refused, theta, n_outer=10, n_inner=21, k_max=3, seed=2)
    assert refused.applied_columns == 0


def test_overlap_curve_refuses_k_past_numerical_rank():
    # a dense copy of a rank-5 planted matrix skips the planted pre-check
    planted = make_planted_operator(100, np.arange(5, 0, -1.0), None, 0.0, seed=0)
    op = DenseOperator(planted.materialize())
    theta = ranked_theta(100, np.arange(5), seed=1)
    with pytest.raises(ValueError, match="k_max=8 exceeds the numerical rank 5 of the sketch;"):
        overlap_curve(op, theta, n_outer=10, n_inner=21, k_max=8, seed=2)
    curve = overlap_curve(op, theta, n_outer=10, n_inner=21, k_max=5, seed=2)
    assert [p.k for p in curve.points] == [1, 2, 3, 4, 5]
