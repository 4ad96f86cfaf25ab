"""Sparse coordinate masks, their orthonormal embedding, and mask metrics.

A k-sparse mask over R^D is stored as its sorted index set (O(k) memory, so D
can be large).  Embedding each selected coordinate as a standard basis vector
turns the mask into a D-by-k orthonormal matrix, which makes masks directly
comparable with arbitrary subspaces through the metrics in
:mod:`grassket.grassmann`.

Parameter vectors are plain 1-d float arrays throughout.
"""

from dataclasses import dataclass

import numpy as np

from .grassmann import OrthonormalBasis

__all__ = [
    "SparseMask",
    "topk_magnitude_mask",
    "mask_basis",
    "mask_eigenspace_overlap",
    "iou",
    "hamming",
    "sample_mask",
    "magnitude_ranking",
]


@dataclass(frozen=True)
class SparseMask:
    """A sorted set of k distinct coordinate indices in [0, dim)."""

    dim: int
    indices: np.ndarray

    def __post_init__(self):
        dim = int(self.dim)
        idx = np.asarray(self.indices, dtype=np.int64).ravel()
        if idx.size < 1 or idx.size > dim:
            raise ValueError(f"need 1 <= k <= dim, got k={idx.size}, dim={dim}")
        idx = np.sort(idx)
        if np.any(idx[1:] == idx[:-1]):
            raise ValueError("mask indices must be distinct")
        if idx[0] < 0 or idx[-1] >= dim:
            raise ValueError(f"indices must lie in [0, {dim})")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "indices", idx)

    @property
    def k(self):
        return len(self.indices)

    def __contains__(self, i):
        return bool(np.isin(i, self.indices))


def _check_theta(theta):
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if theta.size < 1:
        raise ValueError("parameter vector must be nonempty")
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameter vector contains non-finite entries")
    return theta


def magnitude_ranking(theta):
    """All indices ordered by nonincreasing |theta_i|, lower index first on ties."""
    theta = _check_theta(theta)
    # stable mergesort keeps the lower index first among equal magnitudes
    return np.argsort(-np.abs(theta), kind="stable")


def topk_magnitude_mask(theta, k):
    """Mask selecting the k largest entries of theta by magnitude."""
    theta = _check_theta(theta)
    if not 1 <= k <= theta.size:
        raise ValueError(f"need 1 <= k <= {theta.size}, got k={k}")
    return SparseMask(theta.size, magnitude_ranking(theta)[:k])


def mask_basis(mask):
    """Embed a mask as the D-by-k matrix of its selected standard basis vectors."""
    cols = np.zeros((mask.dim, mask.k))
    cols[mask.indices, np.arange(mask.k)] = 1.0
    return OrthonormalBasis(cols, check=False)


def mask_eigenspace_overlap(mask, eigbasis, k):
    """Overlap between a k-mask and a rank-k eigenbasis, in [0, 1].

    Equals ``overlap(mask_basis(mask), eigbasis)`` but sums the squared norms
    of the selected eigenbasis rows directly, never materializing the mask
    embedding or any permutation.
    """
    if mask.k != k or eigbasis.rank != k:
        raise ValueError(
            f"rank mismatch: mask k={mask.k}, basis rank={eigbasis.rank}, requested k={k}"
        )
    if mask.dim != eigbasis.dim:
        raise ValueError(f"dimension mismatch: {mask.dim} vs {eigbasis.dim}")
    rows = eigbasis.columns[mask.indices]
    return float(np.sum(rows * rows) / k)


def iou(m1, m2):
    """Intersection over union of two masks on the same space."""
    if m1.dim != m2.dim:
        raise ValueError(f"dimension mismatch: {m1.dim} vs {m2.dim}")
    inter = len(np.intersect1d(m1.indices, m2.indices, assume_unique=True))
    union = m1.k + m2.k - inter
    return inter / union


def hamming(m1, m2):
    """Number of bit flips turning one mask into the other.

    This is the size of the symmetric difference of the index sets.  For two
    equal-k masks every dropped index pairs with one added index, so the flip
    count is twice the squared projector (chordal) distance between the mask
    embeddings and ranges over [0, 2k].
    """
    if m1.dim != m2.dim:
        raise ValueError(f"dimension mismatch: {m1.dim} vs {m2.dim}")
    inter = len(np.intersect1d(m1.indices, m2.indices, assume_unique=True))
    return int(m1.k + m2.k - 2 * inter)


def mask_from_rng(rng, dim, k):
    """Uniform k-subset of [0, dim) drawn from an existing Generator."""
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    return SparseMask(dim, rng.choice(dim, size=k, replace=False))


def sample_mask(dim, k, seed):
    """Uniformly random k-sparse mask; deterministic per seed."""
    return mask_from_rng(np.random.default_rng(seed), dim, k)
