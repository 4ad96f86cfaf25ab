import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassket import grassmann
from grassket.errors import ContractViolation
from grassket.grassmann import (DEGENERATE_COL_RTOL, MetricKind, OrthonormalBasis,
                                PrincipalAngles, cross_angles, metric, metric_max,
                                orthonormal_range, overlap, overlap_baseline,
                                overlap_variance, positive_qr, principal_angles,
                                qr_rows, sample_stiefel, similarity, stiefel_from_rng)
from grassket.masks import mask_basis, mask_from_rng

ALL_KINDS = list(MetricKind)
DISTANCE_KINDS = [k for k in ALL_KINDS if k is not MetricKind.OVERLAP]


def coordinate_basis(dim, indices):
    cols = np.zeros((dim, len(indices)))
    cols[np.asarray(indices), np.arange(len(indices))] = 1.0
    return OrthonormalBasis(cols, check=False)


def random_rotation(rng, k):
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))


def test_identical_spans_have_zero_angles():
    b = sample_stiefel(12, 4, seed=0)
    sigma = principal_angles(b, b).sigma
    assert np.abs(sigma).max() < 1e-7  # arccos amplifies rounding near 1


def test_orthogonal_coordinate_spans():
    b1 = coordinate_basis(10, [0, 1, 2])
    b2 = coordinate_basis(10, [3, 4, 5])
    sigma = principal_angles(b1, b2).sigma
    assert np.array_equal(sigma, np.full(3, np.pi / 2))


def test_planar_rotation_angle():
    b1 = coordinate_basis(2, [0])
    b2 = OrthonormalBasis(np.array([[np.cos(0.3)], [np.sin(0.3)]]))
    assert principal_angles(b1, b2).sigma[0] == pytest.approx(0.3, abs=1e-12)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        principal_angles(sample_stiefel(10, 2, 0), sample_stiefel(10, 3, 0))
    with pytest.raises(ValueError):
        principal_angles(sample_stiefel(10, 2, 0), sample_stiefel(11, 2, 0))


def test_non_orthonormal_input_rejected():
    with pytest.raises(ContractViolation):
        OrthonormalBasis(np.ones((4, 2)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_rotation_invariance(kind):
    rng = np.random.default_rng(5)
    b1 = sample_stiefel(30, 5, seed=1)
    b2 = sample_stiefel(30, 5, seed=2)
    reference = metric(kind, principal_angles(b1, b2))
    for _ in range(5):
        r1 = OrthonormalBasis(b1.columns @ random_rotation(rng, 5), check=False)
        r2 = OrthonormalBasis(b2.columns @ random_rotation(rng, 5), check=False)
        rotated = metric(kind, principal_angles(r1, r2))
        assert abs(rotated - reference) <= 1e-9


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_symmetry(kind):
    b1 = sample_stiefel(25, 6, seed=3)
    b2 = sample_stiefel(25, 6, seed=4)
    forward = metric(kind, principal_angles(b1, b2))
    backward = metric(kind, principal_angles(b2, b1))
    assert abs(forward - backward) <= 1e-10


def test_zero_angle_values():
    angles = PrincipalAngles(np.zeros(5))
    assert metric(MetricKind.GEODESIC, angles) == 0.0
    assert metric(MetricKind.OVERLAP, angles) == 1.0
    assert metric(MetricKind.PROJECTION_F, angles) == 0.0


def test_right_angle_values():
    angles = PrincipalAngles(np.full(4, np.pi / 2))
    assert metric(MetricKind.CHORDAL_F, angles) == pytest.approx(np.sqrt(8), abs=1e-12)
    assert metric(MetricKind.OVERLAP, angles) == pytest.approx(0.0, abs=1e-30)
    assert metric(MetricKind.FUBINI_STUDY, angles) == np.pi / 2


def test_fubini_study_log_space_matches_direct_product():
    sigma = np.sort(np.random.default_rng(0).uniform(0.1, 1.2, size=6))
    angles = PrincipalAngles(sigma)
    direct = np.arccos(np.prod(np.cos(sigma)))
    assert metric(MetricKind.FUBINI_STUDY, angles) == pytest.approx(direct, abs=1e-12)


def test_fubini_study_saturates_instead_of_underflowing():
    # hundreds of moderate angles underflow the cosine product to zero
    sigma = np.full(400, 1.5)
    assert metric(MetricKind.FUBINI_STUDY, PrincipalAngles(sigma)) == np.pi / 2


def test_overlap_projection_bijection():
    for seed in range(10):
        b1 = sample_stiefel(40, 7, seed=seed)
        b2 = sample_stiefel(40, 7, seed=seed + 100)
        proj = metric(MetricKind.PROJECTION_F, principal_angles(b1, b2))
        assert abs(overlap(b1, b2) - (1.0 - proj**2 / 7)) <= 1e-10


def test_overlap_direct_equals_angle_route():
    b1 = sample_stiefel(35, 5, seed=8)
    b2 = sample_stiefel(35, 5, seed=9)
    via_angles = metric(MetricKind.OVERLAP, principal_angles(b1, b2))
    assert abs(overlap(b1, b2) - via_angles) <= 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_range_bounds(kind):
    for seed in range(8):
        b1 = sample_stiefel(20, 4, seed=seed)
        b2 = sample_stiefel(20, 4, seed=seed + 50)
        value = metric(kind, principal_angles(b1, b2))
        assert -1e-12 <= value <= metric_max(kind, 4) + 1e-12
        assert 0.0 <= similarity(kind, value, 4) <= 1.0


def test_similarity_normalization():
    assert similarity(MetricKind.PROJECTION_F, 0.0, 5) == 1.0
    near_right = metric(MetricKind.PROJECTION_2,
                        PrincipalAngles([0.1, np.pi / 2 - 1e-9]))
    assert similarity(MetricKind.PROJECTION_2, near_right, 2) <= 1e-8
    assert similarity(MetricKind.OVERLAP, 0.3, 11) == 0.3
    with pytest.raises(ValueError):
        similarity(MetricKind.PROJECTION_2, 1.5, 2)


def test_sample_stiefel_full_rank_is_orthogonal():
    basis = sample_stiefel(15, 15, seed=2)
    gram_err = np.abs(basis.columns.T @ basis.columns - np.eye(15)).max()
    assert gram_err <= 1e-10


def test_sample_stiefel_deterministic():
    a = sample_stiefel(20, 5, seed=42)
    b = sample_stiefel(20, 5, seed=42)
    assert np.array_equal(a.columns, b.columns)
    c = sample_stiefel(20, 5, seed=43)
    assert not np.array_equal(a.columns, c.columns)


def test_sample_stiefel_column_marginal_isotropic():
    # the first column of a Haar sample is uniform on the sphere,
    # so its outer product averages to I/D
    dim, n = 8, 10_000
    rng = np.random.default_rng(0)
    outer = np.empty((n, dim, dim))
    for t in range(n):
        q = sample_stiefel(dim, 3, seed=int(rng.integers(2**63))).columns[:, 0]
        outer[t] = np.outer(q, q)
    mean = outer.mean(axis=0)
    stderr = outer.std(axis=0, ddof=1) / np.sqrt(n)
    deviation = np.abs(mean - np.eye(dim) / dim)
    assert np.all(deviation <= 5 * stderr + 1e-12)


@pytest.mark.parametrize("dim,k", [(48, 8), (2048, 102), (2048, 819), (24, 24), (15, 15)])
def test_stiefel_from_rng_is_the_householder_basis(dim, k):
    basis = stiefel_from_rng(np.random.default_rng(0), dim, k).columns
    householder = positive_qr(np.random.default_rng(0).standard_normal((dim, k)))[0]
    assert np.abs(basis - householder).max() <= 1e-13
    assert np.abs(basis.T @ basis - np.eye(k)).max() <= 1e-14


@pytest.mark.parametrize("rows,cols,rank", [(40, 6, 3), (30, 30, 29), (12, 5, 1)])
def test_cholesky_qr2_falls_back_on_rank_deficient_input(monkeypatch, rows, cols, rank):
    rng = np.random.default_rng(rank)
    matrix = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    calls = []

    def spy(m):
        calls.append(m.shape)
        return positive_qr(m)

    monkeypatch.setattr(grassmann, "positive_qr", spy)
    q = orthonormal_range(matrix)[0]
    assert calls == [(rows, cols)]
    assert q.shape == (rows, cols)
    assert np.abs(q.T @ q - np.eye(cols)).max() <= 1e-14
    # one-draw rows of the same matrix come from the fallback too
    assert np.array_equal(qr_rows(matrix, [0, 2]), q[[0, 2]])


@pytest.mark.parametrize("exponent", [600, -600])
def test_qr_rows_far_from_unit_scale_falls_back_without_warning(exponent):
    # the one-pass Gram overflows or underflows; the fallback rescales
    gaussian = np.random.default_rng(11).standard_normal((400, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = qr_rows(np.ldexp(gaussian, exponent), [0, 1])
    assert np.abs(rows - qr_rows(gaussian, [0, 1])).max() <= 1e-12


def test_cholesky_qr2_on_ill_conditioned_input():
    # condition numbers from 1e2 to 1e12, past the reach of two passes:
    # orthonormal columns, and Householder's Q up to its own forward error
    rng = np.random.default_rng(5)
    for exponent in range(2, 13, 2):
        singular = np.logspace(0, -exponent, 8)
        matrix = (positive_qr(rng.standard_normal((50, 8)))[0] * singular
                  @ positive_qr(rng.standard_normal((8, 8)))[0])
        q = orthonormal_range(matrix)[0]
        assert np.abs(q.T @ q - np.eye(8)).max() <= 1e-14
        assert np.abs(q - positive_qr(matrix)[0]).max() <= 1e-15 * 10.0**exponent


@pytest.mark.parametrize("rows,cols,rank", [(40, 6, 3), (30, 30, 29), (12, 5, 1), (20, 4, 0)])
def test_fallback_rank_counts_the_householder_singular_values(rows, cols, rank):
    rng = np.random.default_rng(rank)
    matrix = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    singvals = np.linalg.svd(np.linalg.qr(matrix, mode="r"), compute_uv=False)
    expected = np.count_nonzero(singvals > DEGENERATE_COL_RTOL * np.linalg.norm(matrix))
    assert expected == rank
    assert orthonormal_range(matrix)[1] == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", [-600, 600])
@pytest.mark.parametrize("rank", [3, 6])
def test_power_of_two_scale_changes_no_bit_of_the_range(exponent, rank):
    # rank 3 of 6 columns takes the Householder fallback, rank 6 CholeskyQR2;
    # at 2^600 the unscaled Gram sums overflowed products of both signs
    rng = np.random.default_rng(rank)
    matrix = rng.standard_normal((400, rank)) @ rng.standard_normal((rank, 6))
    q, r = orthonormal_range(matrix)
    scaled_q, scaled_r = orthonormal_range(np.ldexp(matrix, exponent))
    assert np.array_equal(scaled_q, q)
    assert scaled_r == r == rank


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 40), fraction=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_one_draw_rows_match_the_full_basis(dim, fraction, seed):
    k = max(1, round(fraction * dim))
    rng = np.random.default_rng(seed)
    gaussian = rng.standard_normal((dim, k))
    mask = mask_from_rng(rng, dim, k)
    full = OrthonormalBasis(orthonormal_range(gaussian)[0], check=False)
    cross = qr_rows(gaussian, mask.indices)
    assert np.sum(cross * cross) / k == pytest.approx(
        overlap(mask_basis(mask), full), abs=1e-12)
    # arccos turns 1e-16 rounding of a unit cosine into a 1e-8 angle, and
    # k > D/2 forces zero angles, so the angles are compared as cosines
    dense = principal_angles(mask_basis(mask), full).sigma
    assert np.abs(np.cos(cross_angles(cross).sigma) - np.cos(dense)).max() <= 1e-12


def test_overlap_variance_values():
    assert overlap_variance(77, 77) == 0.0
    assert overlap_variance(1, 1) == 0.0
    assert overlap_variance(2048, 102) == pytest.approx(
        2 * 1946**2 / (2048**2 * 2047 * 2050))
    with pytest.raises(ValueError):
        overlap_variance(10, 11)


def test_overlap_trivial_cases():
    b = sample_stiefel(18, 4, seed=1)
    assert overlap(b, b) == pytest.approx(1.0, abs=1e-12)
    b1 = coordinate_basis(12, [0, 1, 2])
    b2 = coordinate_basis(12, [5, 6, 7])
    assert overlap(b1, b2) == 0.0


def test_overlap_baseline_values():
    assert overlap_baseline(77, 77) == 1.0
    assert overlap_baseline(2048, 102) == pytest.approx(0.049805, abs=5e-7)
    with pytest.raises(ValueError):
        overlap_baseline(10, 11)


@pytest.mark.parametrize("dim,k", [(128, 6), (512, 26)])
def test_overlap_expectation_matches_baseline(dim, k):
    rng = np.random.default_rng(123)
    values = [
        overlap(sample_stiefel(dim, k, int(rng.integers(2**63))),
                sample_stiefel(dim, k, int(rng.integers(2**63))))
        for _ in range(200)
    ]
    mean = np.mean(values)
    stderr = np.std(values, ddof=1) / np.sqrt(len(values))
    assert abs(mean - k / dim) <= 4 * stderr


def test_overlap_spread_shrinks_with_dimension():
    # fixed ratio: the sample standard deviation falls as D grows
    rng = np.random.default_rng(7)
    spreads = []
    for dim in (64, 256, 1024):
        k = max(1, round(0.05 * dim))
        values = [
            overlap(sample_stiefel(dim, k, int(rng.integers(2**63))),
                    sample_stiefel(dim, k, int(rng.integers(2**63))))
            for _ in range(50)
        ]
        spreads.append(np.std(values, ddof=1))
    assert spreads[0] >= spreads[1] >= spreads[2]


def test_reference_means_at_large_dimension():
    # random pairs at D=2048, rho=0.05; published reference means:
    # geodesic 0.11909, chordalF 0.09984, projF 0.02513, overlap 0.04962
    dim, k, pairs = 2048, 102, 50
    rng = np.random.default_rng(11)
    sums = dict.fromkeys(["geodesic", "chordalF", "projF", "overlap"], 0.0)
    for _ in range(pairs):
        b1 = sample_stiefel(dim, k, int(rng.integers(2**63)))
        b2 = sample_stiefel(dim, k, int(rng.integers(2**63)))
        angles = principal_angles(b1, b2)
        for kind in (MetricKind.GEODESIC, MetricKind.CHORDAL_F,
                     MetricKind.PROJECTION_F, MetricKind.OVERLAP):
            sums[kind.value] += similarity(kind, metric(kind, angles), k)
    for name, reference in [("geodesic", 0.11909), ("chordalF", 0.09984),
                            ("projF", 0.02513), ("overlap", 0.04962)]:
        mean = sums[name] / pairs
        assert mean == pytest.approx(reference, rel=0.10)
