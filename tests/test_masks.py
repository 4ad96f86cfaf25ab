import itertools

import numpy as np
import pytest

from grassket.grassmann import OrthonormalBasis, overlap, sample_stiefel
from grassket.masks import (SparseMask, hamming, iou, magnitude_ranking, mask_basis,
                            mask_eigenspace_overlap, nested_mask_overlaps, sample_mask,
                            topk_magnitude_mask)
from grassket.operators import eigh_by_magnitude, make_planted_operator


def test_mask_validation():
    with pytest.raises(ValueError):
        SparseMask(5, [1, 1, 2])
    with pytest.raises(ValueError):
        SparseMask(5, [4, 5])
    with pytest.raises(ValueError):
        SparseMask(5, [])
    mask = SparseMask(6, [5, 0, 3])
    assert list(mask.indices) == [0, 3, 5]
    assert mask.k == 3
    assert 3 in mask and 1 not in mask


def test_mask_index_past_int64_is_out_of_range():
    # numpy raises OverflowError, which the CLI would not read as a usage error
    with pytest.raises(ValueError, match=r"indices must lie in \[0, 5\)"):
        SparseMask(5, [0, 2**70])


def test_topk_magnitude_mask():
    assert list(topk_magnitude_mask([0.1, -5.0, 2.0, 0.0], 2).indices) == [1, 2]
    theta = np.arange(1.0, 8.0)
    assert list(topk_magnitude_mask(theta, 7).indices) == list(range(7))


def test_topk_tie_breaks_to_lower_index():
    theta = np.zeros(10)
    theta[3] = -2.0
    theta[7] = 2.0
    mask = topk_magnitude_mask(theta, 1)
    assert list(mask.indices) == [3]


def test_topk_validation():
    with pytest.raises(ValueError):
        topk_magnitude_mask([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        topk_magnitude_mask([1.0, np.inf], 1)


def test_mask_basis_is_identity_embedding():
    mask = SparseMask(7, np.arange(3))
    basis = mask_basis(mask)
    expected = np.zeros((7, 3))
    expected[:3, :3] = np.eye(3)
    assert np.array_equal(basis.columns, expected)


def test_mask_basis_exactly_orthonormal():
    mask = sample_mask(40, 9, seed=4)
    basis = mask_basis(mask)
    assert np.array_equal(basis.columns.T @ basis.columns, np.eye(9))
    assert overlap(basis, basis) == 1.0


def test_mask_eigenspace_overlap_diagonal_cases():
    diag = np.array([9.0, 7.0, 5.0, 3.0, 1.0, 0.5])
    eigvals, vectors = eigh_by_magnitude(np.diag(diag))
    top3 = OrthonormalBasis(vectors[:, :3], check=False)
    assert mask_eigenspace_overlap(SparseMask(6, [0, 1, 2]), top3, 3) == 1.0
    assert mask_eigenspace_overlap(SparseMask(6, [3, 4, 5]), top3, 3) == 0.0


def test_mask_eigenspace_overlap_matches_general_overlap():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(1, 8))
        mask = sample_mask(30, k, int(rng.integers(2**63)))
        basis = sample_stiefel(30, k, int(rng.integers(2**63)))
        direct = mask_eigenspace_overlap(mask, basis, k)
        assert abs(direct - overlap(mask_basis(mask), basis)) <= 1e-10


def test_nested_mask_overlaps_match_the_overlap_of_each_top_k_mask():
    # the running sum gives, for every k, the overlap of the top-k magnitude
    # mask with the leading k vectors, as the subspace overlap computes it
    dim, k_max = 40, 12
    theta = np.random.default_rng(8).standard_normal(dim)
    vectors = sample_stiefel(dim, k_max, 9).columns
    nested = nested_mask_overlaps(vectors[magnitude_ranking(theta)[:k_max]])
    assert len(nested) == k_max
    for k, value in enumerate(nested, start=1):
        basis = OrthonormalBasis(vectors[:, :k], check=False)
        assert abs(value - overlap(mask_basis(topk_magnitude_mask(theta, k)), basis)) <= 1e-15


def test_mask_eigenspace_overlap_chance_level_on_haar_operator():
    dim, k = 60, 6
    values = []
    for seed in range(10):
        op = make_planted_operator(dim, np.arange(k, 0, -1), None, 0.0, seed=seed)
        _, vectors = eigh_by_magnitude(op.materialize())
        top = OrthonormalBasis(vectors[:, :k], check=False)
        mask = sample_mask(dim, k, seed=seed + 500)
        values.append(mask_eigenspace_overlap(mask, top, k))
    mean = np.mean(values)
    stderr = np.std(values, ddof=1) / np.sqrt(len(values))
    assert abs(mean - k / dim) <= 4 * stderr


def test_iou_and_hamming_cases():
    m1 = SparseMask(20, [0, 1, 2, 3])
    assert iou(m1, m1) == 1.0
    assert hamming(m1, m1) == 0
    m2 = SparseMask(20, [10, 11, 12, 13])
    assert iou(m1, m2) == 0.0
    assert hamming(m1, m2) == 8  # full exchange: 2k flips
    m3 = SparseMask(20, [2, 3, 4, 5])  # shares two indices with m1
    assert iou(m1, m3) == pytest.approx(1 / 3, abs=1e-15)
    assert hamming(m1, m3) == 4
    ov = overlap(mask_basis(m1), mask_basis(m3))
    assert ov == 0.5
    assert ov == pytest.approx(2 * iou(m1, m3) / (1 + iou(m1, m3)), abs=1e-15)
    assert ov == pytest.approx(1 - hamming(m1, m3) / (2 * 4), abs=1e-15)


def test_disjoint_masks_projection_distance():
    from grassket.grassmann import MetricKind, metric, principal_angles

    m1 = SparseMask(12, [0, 1, 2])
    m2 = SparseMask(12, [3, 4, 5])
    proj = metric(MetricKind.PROJECTION_F,
                  principal_angles(mask_basis(m1), mask_basis(m2)))
    assert proj**2 == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("dim", [64, 1024])
def test_bijection_suite(dim):
    rng = np.random.default_rng(dim)
    for _ in range(1000):
        k = int(rng.integers(1, 17))
        m1 = sample_mask(dim, k, int(rng.integers(2**63)))
        m2 = sample_mask(dim, k, int(rng.integers(2**63)))
        ov = overlap(mask_basis(m1), mask_basis(m2))
        inter = len(np.intersect1d(m1.indices, m2.indices))
        assert abs(ov - inter / k) <= 1e-12
        j = iou(m1, m2)
        assert abs(ov - 2 * j / (1 + j)) <= 1e-12
        assert abs(ov - (1 - hamming(m1, m2) / (2 * k))) <= 1e-12


def test_overlap_is_a_limited_resource():
    # rows of an orthonormal matrix carry total energy k, so disjoint masks
    # cannot both claim more than the whole of it
    rng = np.random.default_rng(9)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        basis = sample_stiefel(24, k, int(rng.integers(2**63)))
        m1 = SparseMask(24, np.arange(0, 2 * k, 2))
        m2 = SparseMask(24, np.arange(1, 2 * k + 1, 2))
        total = k * mask_eigenspace_overlap(m1, basis, k) \
            + k * mask_eigenspace_overlap(m2, basis, k)
        assert total <= k + 1e-12


def test_topk_maximizes_kappa_exhaustively():
    # kappa is the fraction of the squared norm that the masked coordinates carry
    rng = np.random.default_rng(17)
    for dim in (6, 9, 12):
        theta = rng.standard_normal(dim)
        total = np.dot(theta, theta)
        for k in (1, 2, 3):
            best = theta[topk_magnitude_mask(theta, k).indices]
            best_value = np.dot(best, best) / total
            for combo in itertools.combinations(range(dim), k):
                other = theta[list(combo)]
                assert np.dot(other, other) / total <= best_value + 1e-15


def test_sample_mask_statistics():
    dim, k, n = 12, 3, 10_000
    rng = np.random.default_rng(1)
    hits = sum(0 in sample_mask(dim, k, int(rng.integers(2**63)))
               for _ in range(n))
    p = k / dim
    stderr = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 5 * stderr
    assert list(sample_mask(8, 8, seed=0).indices) == list(range(8))
    assert np.array_equal(sample_mask(50, 5, seed=3).indices,
                          sample_mask(50, 5, seed=3).indices)
