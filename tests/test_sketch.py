import json
import logging
import tracemalloc

import numpy as np
import pytest

from grassket.errors import ContractViolation, IntegrityError
from grassket.grassmann import (DEGENERATE_COL_RTOL, OrthonormalBasis, orthonormal_range,
                                overlap, range_factors)
from grassket.masks import SparseMask
from grassket.operators import (CountingOperator, DenseOperator, eigh_by_magnitude,
                                make_planted_operator)
from grassket.sketch import (SketchedEigh, draw_measurements, load_sketched_eigh,
                             residual_probe_norms, save_sketched_eigh, seigh)


# ---------------------------------------------------------------------------
# measurement ensembles


def test_measurements_deterministic():
    a = draw_measurements(8, 4, 2, seed=7)
    b = draw_measurements(8, 4, 2, seed=7)
    assert np.array_equal(a.upsilon, b.upsilon)
    assert np.array_equal(a.omega_inner, b.omega_inner)
    assert np.array_equal(a.omega_outer, b.omega_outer)
    c = draw_measurements(8, 4, 2, seed=8)
    assert not np.array_equal(a.upsilon, c.upsilon)


def test_measurements_shapes_and_validation():
    ens = draw_measurements(16, 9, 4, seed=0)
    assert ens.upsilon.shape == (16, 9)
    assert ens.omega_inner.shape == (16, 5)
    assert ens.omega_outer.shape == (16, 4)
    assert ens.omega_full.shape == (16, 9)
    with pytest.raises(ValueError):
        draw_measurements(16, 4, 9, seed=0)  # n_outer > n_inner
    with pytest.raises(ValueError):
        draw_measurements(4, 9, 2, seed=0)  # n_inner > dim


def _reference_signs(rng, shape):
    # one bit of rng.bytes per entry in row-major order, most significant
    # bit of each byte first; a set bit is -1
    size = int(np.prod(shape))
    raw = np.frombuffer(rng.bytes((size + 7) // 8), dtype=np.uint8)
    bits = (raw[:, None] >> np.arange(7, -1, -1)) & 1
    return 1.0 - 2.0 * bits.ravel()[:size].reshape(shape)


def test_omega_full_holds_both_streams_as_views():
    ens = draw_measurements(16, 9, 4, seed=3)
    assert np.shares_memory(ens.omega_outer, ens.omega_full)
    assert np.shares_memory(ens.omega_inner, ens.omega_full)
    # stream 1 fills the leading inner columns, stream 2 the trailing outer ones
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(3).spawn(5)]
    assert np.array_equal(ens.upsilon, _reference_signs(streams[0], (16, 9)))
    assert np.array_equal(ens.omega_full[:, :5], _reference_signs(streams[1], (16, 5)))
    assert np.array_equal(ens.omega_full[:, 5:], _reference_signs(streams[2], (16, 4)))


@pytest.mark.parametrize("dim,n_inner,n_outer,seed", [
    (16, 9, 4, 3), (16, 5, 5, 4), (9, 9, 2, 5), (3000, 201, 100, 6)])
def test_draw_matches_reference_streams(dim, n_inner, n_outer, seed):
    ens = draw_measurements(dim, n_inner, n_outer, seed=seed)
    assert ens.omega_outer.base is ens.omega_full
    assert ens.omega_inner.base is ens.omega_full
    # every entry is a sign; stream 0 fills upsilon, stream 1 the leading
    # inner columns, stream 2 the trailing outer ones
    split = n_inner - n_outer
    for block in (ens.upsilon, ens.omega_full):
        assert np.all(np.abs(block) == 1.0)
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(3)]
    assert np.array_equal(ens.upsilon, _reference_signs(streams[0], (dim, n_inner)))
    assert np.array_equal(ens.omega_inner, _reference_signs(streams[1], (dim, split)))
    assert np.array_equal(ens.omega_outer, _reference_signs(streams[2], (dim, n_outer)))


def test_measurement_signs_are_fair():
    ens = draw_measurements(1030, 980, 300, seed=1)
    for block in (ens.upsilon, ens.omega_full):
        n = block.size
        assert n >= 10**6
        negative = np.count_nonzero(block == -1.0) / n
        assert abs(negative - 0.5) <= 5 * np.sqrt(0.25 / n)


def test_measurement_draw_allocates_no_block_size_temporary():
    dim, n_inner, n_outer = 3000, 201, 100
    draw_measurements(16, 9, 4, seed=0)  # imports numpy.random before tracing
    tracemalloc.start()
    try:
        ens = draw_measurements(dim, n_inner, n_outer, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = ens.upsilon.nbytes + ens.omega_full.nbytes
    assert peak - result < dim * n_inner * 8 / 4


def test_measurements_entrywise_mean():
    ens = draw_measurements(1030, 980, 300, seed=1)
    assert ens.upsilon.size >= 10**6
    assert abs(ens.upsilon.mean()) <= 0.01


def test_measurements_column_norms_concentrate():
    ens = draw_measurements(1024, 300, 100, seed=2)
    for block in (ens.upsilon, ens.omega_inner, ens.omega_outer):
        ratios = np.sum(block**2, axis=0) / 1024
        assert np.all((0.8 <= ratios) & (ratios <= 1.2))


# ---------------------------------------------------------------------------
# seigh


def test_seigh_rank_deficient_diagonal():
    diag = np.concatenate([np.arange(10, 0, -1.0), np.zeros(90)])
    op = DenseOperator(np.diag(diag))
    dec = seigh(op, draw_measurements(100, 31, 15, seed=3))
    assert np.abs(dec.eigvals[:10] - diag[:10]).max() <= 1e-8 * 10
    exact = np.zeros((100, 10))
    exact[:10, :10] = np.eye(10)
    recovered = dec.eigenbasis(10)
    assert overlap(recovered, OrthonormalBasis(exact, check=False)) >= 1 - 1e-8


def test_seigh_negative_rank_one():
    rng = np.random.default_rng(11)
    q = rng.standard_normal(30)
    q /= np.linalg.norm(q)
    op = DenseOperator(-3.0 * np.outer(q, q))
    dec = seigh(op, draw_measurements(30, 5, 2, seed=12))
    assert dec.eigvals[0] == pytest.approx(-3.0, abs=1e-8)
    assert dec.rank == 1
    assert abs(q @ dec.eigenbasis(1).columns[:, 0]) >= 1 - 1e-8


def test_seigh_scalar_operator():
    op = DenseOperator(np.array([[3.0]]))
    dec = seigh(op, draw_measurements(1, 1, 1, seed=5))
    assert dec.eigvals == pytest.approx([3.0], abs=1e-12)


def test_seigh_dimension_mismatch():
    op = DenseOperator(np.diag(np.ones(8)))
    with pytest.raises(ValueError, match="does not match"):
        seigh(op, draw_measurements(10, 5, 2, seed=0))


def test_seigh_orthonormal_factors_and_symmetric_core():
    mask = SparseMask(80, np.arange(8))
    op = make_planted_operator(80, np.arange(8, 0, -1.0), mask, 0.6, seed=1)
    dec = seigh(op, draw_measurements(80, 27, 13, seed=2))
    assert dec.rank == 8
    assert np.abs(dec.vectors.T @ dec.vectors - np.eye(8)).max() <= 1e-10
    basis = dec.eigenbasis().columns
    assert np.abs(basis.T @ basis - np.eye(8)).max() <= 1e-10
    assert dec.core_asymmetry <= 1e-8


@pytest.mark.parametrize("seed", range(20))
def test_exact_rank_capture_over_seeds(seed):
    # any exact-rank operator with n_outer >= rank + 5 is captured exactly
    rng = np.random.default_rng(seed)
    eigvals = np.sort(np.abs(rng.standard_normal(6)))[::-1] + 0.5
    signs = rng.choice([-1.0, 1.0], size=6)
    mask = SparseMask(120, np.arange(6))
    op = make_planted_operator(120, eigvals * signs, mask, 0.5, seed=seed)
    dec = seigh(op, draw_measurements(120, 23, 11, seed=seed + 1000))
    oracle, _ = eigh_by_magnitude(op.materialize())
    top = oracle[:6]
    assert np.abs(dec.eigvals - top).max() <= 1e-6 * np.abs(top).max()
    assert dec.rank == 6


def test_measurement_budget():
    mask = SparseMask(64, np.arange(4))
    op = make_planted_operator(64, [4.0, 3.0, 2.0, 1.0], mask, 0.5, seed=0)
    n_inner, n_outer = 13, 6

    counter = CountingOperator(op)
    seigh(counter, draw_measurements(64, n_inner, n_outer, seed=1))
    assert counter.applied_columns == n_inner
    assert counter.calls == 1  # one block of all n_inner columns


def _explicit_q_seigh(A, ens):
    """The sketch with an explicit range basis Q: the outer and inner blocks
    applied separately, upsilon^T Q and omega_full^T Q as products over D,
    the core symmetrized unscaled and the eigenvectors formed as Q U."""
    outer_sketch = A.apply(ens.omega_outer)
    M = ens.upsilon.T @ np.hstack([A.apply(ens.omega_inner), outer_sketch])
    Q = orthonormal_range(outer_sketch)
    half = np.linalg.lstsq(ens.upsilon.T @ Q, M, rcond=None)[0]
    core = np.linalg.lstsq(ens.omega_full.T @ Q, half.T, rcond=None)[0].T
    eigvals, U = np.linalg.eigh(0.5 * (core + core.T))
    order = np.argsort(-np.abs(eigvals), kind="stable")
    return eigvals[order], Q @ U[:, order]


def _signed_dense(dim, seed):
    # distinct magnitudes, alternating signs
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    eigvals = 0.8 ** np.arange(dim) * (-1.0) ** np.arange(dim)
    matrix = (basis * eigvals) @ basis.T
    return DenseOperator(0.5 * (matrix + matrix.T))


@pytest.mark.parametrize("make,n_outer,k,falls_back", [
    (lambda: make_planted_operator(300, 0.8 ** np.arange(60), None, 0.0, seed=1), 30, 10, False),
    (lambda: make_planted_operator(150, np.arange(20, 0, -1.0), None, 0.0, seed=4), 25, 10, True),
    (lambda: _signed_dense(80, seed=5), 20, 5, False),
    (lambda: make_planted_operator(300, 2.0 ** 600 * 0.8 ** np.arange(60), None, 0.0, 1),
     30, 10, False),
    (lambda: make_planted_operator(300, 2.0 ** -600 * 0.8 ** np.arange(60), None, 0.0, 1),
     30, 10, False),
    (lambda: make_planted_operator(150, 2.0 ** 600 * np.arange(20, 0, -1.0), None, 0.0, 4),
     25, 10, True),
], ids=["decaying", "rank-deficient", "signed-dense", "scaled-up", "scaled-down",
        "rank-deficient-scaled-up"])
def test_seigh_matches_the_explicit_range_basis(make, n_outer, k, falls_back):
    # bounds fixed before the comparison was run: eigenvalues within
    # 1e-12 |lambda_1| and top-k eigenspace overlap within 1e-12 of 1; every
    # case has an eigengap of at least 2% of |lambda_1| after the k-th value
    op = make()
    ens = draw_measurements(op.dim, 2 * n_outer + 1, n_outer, seed=n_outer + 7)
    assert (range_factors(op.apply(ens.omega_outer))[2] is None) == falls_back
    eigvals, vectors = _explicit_q_seigh(op, ens)
    dec = seigh(op, ens)
    assert dec.rank == len(eigvals)
    assert np.abs(dec.eigvals - eigvals).max() <= 1e-12 * abs(eigvals[0])
    assert overlap(dec.eigenbasis(k), OrthonormalBasis(vectors[:, :k])) >= 1 - 1e-12


@pytest.mark.parametrize("eigvals,bound", [
    (100 * 0.9 ** np.arange(200), 7.290),
    (np.arange(60, 0, -1.0), 7.228),
], ids=["cholesky-qr2", "householder"])
def test_draw_and_seigh_peak_memory(eigvals, bound):
    # traced peak of the draw plus seigh in units of D x n_outer doubles.  The
    # bounds are the peaks of the sketch that applied the operator in two
    # blocks and formed Q, 7.28976 and 7.22725, rounded up in the third
    # decimal (by less than one D-vector)
    dim, n_outer = 3000, 100
    op = make_planted_operator(dim, eigvals, None, 0.0, seed=3)
    seigh(op, draw_measurements(dim, 21, 10, seed=0))  # imports and caches before tracing
    tracemalloc.start()
    try:
        dec = seigh(op, draw_measurements(dim, 2 * n_outer + 1, n_outer, seed=7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.rank == min(n_outer, len(eigvals))
    assert peak <= bound * dim * n_outer * 8


def test_seigh_reports_numerical_rank_without_warning(caplog):
    op = make_planted_operator(100, np.arange(5, 0, -1.0), None, 0.0, seed=0)
    with caplog.at_level(logging.WARNING):
        dec = seigh(op, draw_measurements(100, 21, 10, seed=2))
    assert dec.rank == 5
    assert dec.vectors.shape == (100, 5)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_seigh_numerical_rank_full_and_zero():
    full = seigh(DenseOperator(np.diag(np.arange(20, 0, -1.0))),
                 draw_measurements(20, 11, 5, seed=6))
    assert full.rank == 5
    with pytest.raises(ContractViolation, match="outer sketch has numerical rank 0"):
        seigh(DenseOperator(np.zeros((12, 12))), draw_measurements(12, 6, 3, seed=4))


@pytest.mark.parametrize("make,n_outer,falls_back", [
    (lambda: make_planted_operator(200, 0.8 ** np.arange(60), None, 0.0, seed=1), 30, False),
    (lambda: make_planted_operator(300, np.arange(40, 0, -1.0), None, 0.0, seed=2), 40, False),
    (lambda: make_planted_operator(200, 0.9 ** np.arange(5), None, 0.0, seed=3), 12, True),
    (lambda: make_planted_operator(150, np.arange(20, 0, -1.0), None, 0.0, seed=4), 25, True),
    (lambda: DenseOperator(np.zeros((40, 40))), 8, True),
    # an exact-rank sketch with condition number near 1e11: full numerical rank
    (lambda: DenseOperator(np.diag(np.concatenate([np.logspace(0, -11, 30), np.zeros(90)]))),
     30, True),
], ids=["decaying", "flat", "rank-5", "rank-20", "zero", "cond-1e11"])
def test_gram_range_basis_keeps_the_householder_rank(monkeypatch, make, n_outer, falls_back):
    # the fallback is the only Householder QR seigh runs
    op = make()
    ens = draw_measurements(op.dim, 2 * n_outer + 1, n_outer, seed=n_outer)
    sketch = op.apply(ens.omega_outer)
    singvals = np.linalg.svd(np.linalg.qr(sketch, mode="r"), compute_uv=False)
    expected = int(np.count_nonzero(singvals > DEGENERATE_COL_RTOL * np.linalg.norm(sketch)))
    calls = []
    householder = np.linalg.qr

    def spy(m, *args, **kwargs):
        calls.append(m.shape)
        return householder(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    if expected == 0:
        with pytest.raises(ContractViolation, match="outer sketch has numerical rank 0"):
            seigh(op, ens)
    else:
        dec = seigh(op, ens)
        assert dec.rank == expected
        assert np.abs(dec.vectors.T @ dec.vectors - np.eye(expected)).max() <= 1e-13
    assert calls == ([(op.dim, n_outer)] if falls_back else [])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", [-600, 600])
def test_seigh_at_extreme_operator_scales(exponent):
    # the Gram of the sketch and its norm would over- or underflow unscaled
    def run(scale):
        op = make_planted_operator(200, scale * np.arange(5, 0, -1.0), None, 0.0, 0)
        return seigh(op, draw_measurements(200, 21, 10, 0))

    scale = 2.0 ** exponent
    reference = run(1.0)
    dec = run(scale)
    assert dec.rank == reference.rank == 5
    np.testing.assert_allclose(dec.eigvals / scale, reference.eigvals, rtol=1e-12)
    assert np.isfinite(dec.core_asymmetry)


@pytest.mark.filterwarnings("error")
def test_seigh_of_a_rank_one_operator_near_the_float_maximum():
    dec = seigh(DenseOperator(np.full((20, 20), 1e300)), draw_measurements(20, 5, 2, 0))
    assert dec.rank == 1
    assert dec.eigvals[0] == pytest.approx(2e301, rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_seigh_refuses_an_inner_sketch_that_overflows():
    # finite entries whose sketch products pass the float range break the
    # numerical contract; numpy's LinAlgError would read as a usage error
    rng = np.random.default_rng(0)
    half = rng.standard_normal((200, 200))
    matrix = (half + half.T) * 1e306
    with pytest.raises(ContractViolation, match="inner sketch is not finite"):
        seigh(DenseOperator(matrix), draw_measurements(200, 41, 20, 0))


@pytest.mark.filterwarnings("error")
def test_seigh_symmetrizes_a_core_near_the_float_maximum():
    # the inner block holds +-1e308, which doubles past the float range when
    # the core is symmetrized unscaled
    matrix = np.zeros((12, 12))
    matrix[0, 0] = 1e308
    dec = seigh(DenseOperator(matrix), draw_measurements(12, 7, 3, 0))
    assert dec.rank == 1
    assert dec.eigvals[0] == pytest.approx(1e308, rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("seed,message", [
    (1, "sketch core is not finite"),
    (37, "sketch eigenvalues are not finite"),
])
def test_seigh_refuses_a_core_past_the_float_range(seed, message):
    # a full-rank operator near the float maximum seen through a two-column
    # sketch: the core's solves amplify what the sketch misses, past the
    # float range, or its eigenvalues pass it
    half = np.random.default_rng(seed).standard_normal((12, 12))
    matrix = half + half.T
    matrix *= 1e307 / np.abs(matrix).max()
    with pytest.raises(ContractViolation, match=message):
        seigh(DenseOperator(matrix), draw_measurements(12, 2, 2, seed))


# ---------------------------------------------------------------------------
# reconstruction and eigenbasis access


def test_exact_rank_reconstruction():
    # the sketch captures the planted rank 10, so it reconstructs the operator
    mask = SparseMask(90, np.arange(10))
    op = make_planted_operator(90, np.arange(10, 0, -1.0), mask, 0.5, seed=7)
    dec = seigh(op, draw_measurements(90, 31, 15, seed=8))
    dense = op.materialize()
    err = np.linalg.norm(dec.reconstruct(np.eye(90)) - dense)
    assert err <= 1e-8 * np.linalg.norm(dense)


def test_leading_eigenpair_of_an_exact_rank_operator():
    # exact-rank setting, so the leading eigenpair is recovered sharply
    diag = np.concatenate([np.arange(10, 0, -1.0), np.zeros(90)])
    op = DenseOperator(np.diag(diag))
    dec = seigh(op, draw_measurements(100, 31, 15, seed=9))
    assert dec.eigvals[0] == pytest.approx(10.0, rel=1e-8)
    vec = dec.eigenbasis(1).columns[:, 0]
    assert abs(vec[0]) >= 1 - 1e-8


def test_eigenbasis_range_check():
    op = DenseOperator(np.diag(np.arange(8, 0, -1.0)))
    dec = seigh(op, draw_measurements(8, 7, 3, seed=1))
    with pytest.raises(ValueError):
        dec.eigenbasis(0)
    with pytest.raises(ValueError):
        dec.eigenbasis(4)


# ---------------------------------------------------------------------------
# residual estimation


def test_residual_small_when_fully_captured():
    mask = SparseMask(60, np.arange(6))
    op = make_planted_operator(60, np.arange(6, 0, -1.0), mask, 0.5, seed=2)
    dec = seigh(op, draw_measurements(60, 23, 11, seed=3))
    frob = np.linalg.norm(op.materialize())
    assert np.sqrt(residual_probe_norms(op, dec, n_probe=10, seed=4).mean()) <= 1e-6 * frob


def test_residual_of_zero_reconstruction_matches_frobenius_norm():
    op = DenseOperator(np.diag(np.ones(2)))
    zero_dec = SketchedEigh(vectors=np.eye(2), eigvals=np.zeros(2))
    norms = residual_probe_norms(op, zero_dec, n_probe=4000, seed=5)
    mean = norms.mean()
    stderr = norms.std(ddof=1) / np.sqrt(len(norms))
    assert abs(mean - 2.0) <= 3 * stderr  # ||A||_F^2 = 2


def test_residual_monotone_in_outer_count():
    diag = np.arange(1, 301, dtype=np.float64) ** -1.0
    op = DenseOperator(np.diag(diag))
    k = 10
    previous = None
    for n_outer in (k + 5, 2 * k, 4 * k):
        dec = seigh(op, draw_measurements(300, 2 * n_outer + 1, n_outer, seed=10))
        norms = residual_probe_norms(op, dec, n_probe=40, seed=11)
        mean = norms.mean()
        stderr = norms.std(ddof=1) / np.sqrt(len(norms))
        estimate = np.sqrt(mean)
        # delta method on the square root
        est_stderr = stderr / (2 * max(estimate, 1e-30))
        if previous is not None:
            prev_est, prev_se = previous
            assert estimate <= prev_est + 2 * np.hypot(est_stderr, prev_se)
        previous = (estimate, est_stderr)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path):
    op = DenseOperator(np.diag(np.arange(12, 0, -1.0)))
    dec = seigh(op, draw_measurements(12, 9, 4, seed=0))
    save_sketched_eigh(dec, tmp_path / "dec", metadata={"n_inner": 9, "n_outer": 4,
                                                        "seed": 0})
    loaded = load_sketched_eigh(tmp_path / "dec")
    assert np.array_equal(loaded.vectors, dec.vectors)
    assert np.array_equal(loaded.eigvals, dec.eigvals)
    from grassket.storage import open_store
    meta = open_store(tmp_path / "dec/vectors.store").metadata
    assert (meta["n_inner"], meta["n_outer"], meta["seed"]) == (9, 4, 0)
    assert meta["eigvals"] == [float(v) for v in dec.eigvals]


def test_save_load_keeps_numerical_rank(tmp_path):
    op = make_planted_operator(40, [4.0, 3.0, 2.0], None, 0.0, seed=1)
    dec = seigh(op, draw_measurements(40, 13, 6, seed=2))
    assert dec.rank == 3
    save_sketched_eigh(dec, tmp_path / "dec")
    from grassket.storage import open_store
    assert open_store(tmp_path / "dec/vectors.store").metadata["numerical_rank"] == 3
    assert load_sketched_eigh(tmp_path / "dec").rank == 3


@pytest.mark.parametrize("edit", [
    lambda meta: meta["eigvals"].pop(),
    lambda meta: meta.update(eigvals=meta["eigvals"] + [0.0]),
], ids=["one_short", "one_extra"])
def test_load_refuses_eigval_count_off_the_columns(tmp_path, edit):
    dec = seigh(DenseOperator(np.diag(np.arange(12, 0, -1.0))),
                draw_measurements(12, 9, 4, seed=0))
    save_sketched_eigh(dec, tmp_path / "dec")
    _edit_metadata(tmp_path / "dec/vectors.store", edit)
    with pytest.raises(IntegrityError, match="do not fit 4 stored eigenvectors"):
        load_sketched_eigh(tmp_path / "dec")


@pytest.mark.parametrize("rank", [-1, 5, 2.0, True, "3", None,
                                  pytest.param(3, id="int-3"), 0])
def test_load_refuses_numerical_rank_outside_the_columns(tmp_path, rank):
    dec = seigh(DenseOperator(np.diag(np.arange(12, 0, -1.0))),
                draw_measurements(12, 9, 4, seed=0))
    save_sketched_eigh(dec, tmp_path / "dec")
    _edit_metadata(tmp_path / "dec/vectors.store",
                   lambda meta: meta.update(numerical_rank=rank))
    with pytest.raises(IntegrityError, match="do not fit 4 stored eigenvectors"):
        load_sketched_eigh(tmp_path / "dec")


def test_load_refuses_a_store_padded_past_its_numerical_rank(tmp_path):
    # the layout of a rank-3 sketch with 4 outer measurements before 0.7.0:
    # a fourth column for an exact-zero eigenvalue past numerical_rank 3
    dec = seigh(DenseOperator(np.diag(np.arange(12, 0, -1.0))),
                draw_measurements(12, 9, 4, seed=0))
    save_sketched_eigh(dec, tmp_path / "dec")

    def pad(meta):
        meta["eigvals"][3] = 0.0
        meta["numerical_rank"] = 3

    _edit_metadata(tmp_path / "dec/vectors.store", pad)
    with pytest.raises(IntegrityError, match="numerical_rank 3 do not fit 4 stored"):
        load_sketched_eigh(tmp_path / "dec")


@pytest.mark.parametrize("edit", [
    lambda meta: meta["eigvals"].__setitem__(0, "x"),
    lambda meta: meta.update(eigvals="abc"),
    lambda meta: meta.update(core_asymmetry="x"),
    lambda meta: meta.update(core_asymmetry=None),
], ids=["eigval_text", "eigvals_text", "asymmetry_text", "asymmetry_null"])
def test_load_refuses_non_numeric_eigvals_and_asymmetry(tmp_path, edit):
    dec = seigh(DenseOperator(np.diag(np.arange(12, 0, -1.0))),
                draw_measurements(12, 9, 4, seed=0))
    save_sketched_eigh(dec, tmp_path / "dec")
    _edit_metadata(tmp_path / "dec/vectors.store", edit)
    with pytest.raises(IntegrityError, match="must be numbers"):
        load_sketched_eigh(tmp_path / "dec")


def _edit_metadata(store_path, edit):
    manifest_path = store_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest["metadata"])
    manifest_path.write_text(json.dumps(manifest))
