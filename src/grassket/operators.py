"""Matrix-free linear operators and synthetic planted-spectrum operators.

Everything downstream (sketched decompositions, residual probes, diagonal
readouts) talks to operators exclusively through block application: a block is
a 2-d float array whose columns are the vectors to map.  Single vectors are
1-column blocks.
"""

import numpy as np

from .errors import ContractViolation
from .grassmann import positive_qr, stiefel_from_rng
from .masks import SparseMask, magnitude_ranking

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "DiagonalOperator",
    "PlantedOperator",
    "CountingOperator",
    "make_planted_operator",
    "eigh_by_magnitude",
]


def _check_block(X, dim, side):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(
            f"expected a 2-d block of column vectors, got ndim={X.ndim} "
            "(wrap single vectors as 1-column blocks)"
        )
    if X.shape[0] != dim:
        raise ValueError(f"block has {X.shape[0]} rows, operator {side} is {dim}")
    if X.shape[1] < 1:
        raise ValueError("block must contain at least one column")
    if not np.all(np.isfinite(X)):
        raise ValueError("block contains non-finite entries")
    return X


class LinearOperator:
    """A dimension-tagged map applying an implicit matrix to column blocks.

    Subclasses implement ``_apply`` (and ``_apply_adjoint`` when not
    hermitian).  Operators are immutable after construction and must be safe
    to apply concurrently on disjoint blocks.
    """

    def __init__(self, rows, cols, hermitian=False):
        rows, cols = int(rows), int(cols)
        if rows < 1 or cols < 1:
            raise ValueError("operator dimensions must be positive")
        if hermitian and rows != cols:
            raise ValueError("hermitian operators must be square")
        self.rows = rows
        self.cols = cols
        self.hermitian = bool(hermitian)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def _apply(self, X):
        raise NotImplementedError

    def _apply_adjoint(self, X):
        raise NotImplementedError(
            f"{type(self).__name__} does not implement an adjoint"
        )

    def apply(self, X):
        """Apply the operator to a cols-by-n block, returning rows-by-n."""
        X = _check_block(X, self.cols, "input dimension")
        return self._apply(X)

    def apply_adjoint(self, X):
        """Apply the adjoint (transpose) to a rows-by-n block."""
        X = _check_block(X, self.rows, "output dimension")
        if self.hermitian:
            return self._apply(X)
        return self._apply_adjoint(X)


class DenseOperator(LinearOperator):
    """Operator backed by an explicit matrix (the exact-oracle workhorse)."""

    def __init__(self, matrix, hermitian=None):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-d")
        if hermitian is None:
            hermitian = matrix.shape[0] == matrix.shape[1] and np.array_equal(
                matrix, matrix.T
            )
        if hermitian and not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(matrix).max())):
            raise ContractViolation("matrix flagged hermitian is not symmetric")
        super().__init__(matrix.shape[0], matrix.shape[1], hermitian=hermitian)
        self.matrix = matrix

    def _apply(self, X):
        return self.matrix @ X

    def _apply_adjoint(self, X):
        return self.matrix.T @ X

    @classmethod
    def from_store(cls, path, hermitian=None):
        """Load a dense operator from a chunked or merged matrix store."""
        from . import storage

        return cls(storage.read_matrix(path), hermitian=hermitian)


class DiagonalOperator(LinearOperator):
    """Hermitian operator multiplying each coordinate by a fixed value."""

    def __init__(self, diag):
        diag = np.asarray(diag, dtype=np.float64).ravel()
        super().__init__(len(diag), len(diag), hermitian=True)
        self.diag = diag

    def _apply(self, X):
        return self.diag[:, None] * X


class CountingOperator(LinearOperator):
    """Wrapper counting how many columns pass through an operator.

    Used to audit measurement budgets: ``applied_columns`` counts forward
    applications, ``adjoint_columns`` the adjoint ones, ``calls`` the number
    of block applications of either kind.
    """

    def __init__(self, op):
        super().__init__(op.rows, op.cols, hermitian=op.hermitian)
        self.op = op
        self.applied_columns = 0
        self.adjoint_columns = 0
        self.calls = 0

    def _apply(self, X):
        self.applied_columns += X.shape[1]
        self.calls += 1
        return self.op.apply(X)

    def _apply_adjoint(self, X):
        self.adjoint_columns += X.shape[1]
        self.calls += 1
        return self.op.apply_adjoint(X)

    def apply_adjoint(self, X):
        # route hermitian adjoints through the adjoint counter, not _apply
        X = _check_block(X, self.rows, "output dimension")
        if self.hermitian:
            self.adjoint_columns += X.shape[1]
            self.calls += 1
            return self.op.apply(X)
        return self._apply_adjoint(X)


class PlantedOperator(LinearOperator):
    """Symmetric operator with a known low-rank spectrum A = U diag(l) U^T.

    ``basis`` is column-orthonormal, ``eigvals`` sorted by nonincreasing
    magnitude, and ``alignment`` records how strongly the planted eigenbasis
    concentrates on a designated coordinate subset (see
    :func:`make_planted_operator`).
    """

    def __init__(self, basis, eigvals, alignment=None, mask_indices=None):
        basis = np.asarray(basis, dtype=np.float64)
        eigvals = np.asarray(eigvals, dtype=np.float64).ravel()
        if basis.ndim != 2 or basis.shape[1] != len(eigvals):
            raise ValueError("basis must be dim-by-rank with one column per eigenvalue")
        if not np.all(np.isfinite(eigvals)):
            raise ValueError(f"planted eigenvalues must be finite, got {eigvals.tolist()}")
        mags = np.abs(eigvals)
        if np.any(mags[:-1] < mags[1:]):
            raise ValueError("eigenvalue magnitudes must be nonincreasing")
        gram_err = np.abs(basis.T @ basis - np.eye(basis.shape[1])).max()
        if gram_err > 1e-10:
            raise ContractViolation(f"planted basis not orthonormal (err={gram_err:.2e})")
        super().__init__(basis.shape[0], basis.shape[0], hermitian=True)
        self.dim = basis.shape[0]
        self.basis = basis
        self.eigvals = eigvals
        self.alignment = alignment
        self.mask_indices = None if mask_indices is None else np.asarray(mask_indices)

    @property
    def rank(self):
        return len(self.eigvals)

    def _apply(self, X):
        return self.basis @ (self.eigvals[:, None] * (self.basis.T @ X))

    def materialize(self):
        """Dense D-by-D matrix U diag(l) U^T, for oracle comparisons."""
        return self.basis @ (self.eigvals[:, None] * self.basis.T)


def make_planted_operator(dim, eigvals, mask_target, alignment, seed):
    """Build a planted operator whose top eigenspace is steerable onto a mask.

    The planted basis is a convex blend, re-orthonormalized, between a
    Haar-random basis (alignment 0) and a basis supported exactly on the
    coordinates of ``mask_target`` (alignment 1).  The supported basis is
    rotated onto the Haar one (orthogonal Procrustes) before blending, which
    makes the exact mask/eigenspace overlap nondecreasing in ``alignment``:
    in the aligned frame the blend reduces to independent planar rotations,
    one per principal angle.

    Parameters
    ----------
    dim: ambient dimension D.
    eigvals: planted eigenvalues, nonincreasing magnitudes, length r <= D.
    mask_target: SparseMask of r indices the top eigenspace should favor.
        Ignored at alignment 0 (may be None there).
    alignment: blend weight in [0, 1].
    seed: RNG seed; fixed seed gives a fixed operator.
    """
    dim = int(dim)
    eigvals = np.asarray(eigvals, dtype=np.float64).ravel()
    r = len(eigvals)
    if not 1 <= r <= dim:
        raise ValueError("need 1 <= len(eigvals) <= dim")
    if not 0.0 <= alignment <= 1.0:
        raise ValueError(f"alignment must lie in [0, 1], got {alignment}")

    rng = np.random.default_rng(seed)
    haar = stiefel_from_rng(rng, dim, r).columns
    if alignment == 0.0:
        if mask_target is not None and mask_target.dim != dim:
            raise ValueError("mask_target dimension mismatch")
        basis = haar
        mask_indices = None if mask_target is None else mask_target.indices
    else:
        if not isinstance(mask_target, SparseMask):
            raise TypeError("mask_target must be a SparseMask")
        if mask_target.dim != dim:
            raise ValueError("mask_target dimension mismatch")
        if mask_target.k != r:
            raise ValueError(
                f"mask_target selects {mask_target.k} coordinates but "
                f"{r} eigenvalues are planted"
            )
        supported = np.zeros((dim, r))
        supported[mask_target.indices] = stiefel_from_rng(rng, r, r).columns
        # Procrustes: rotate the supported basis onto the Haar one so the
        # blend below interpolates along principal-angle planes.
        W, _, Vt = np.linalg.svd(supported.T @ haar)
        supported = supported @ (W @ Vt)
        blend = (1.0 - alignment) * haar + alignment * supported
        basis = positive_qr(blend)
        mask_indices = mask_target.indices

    return PlantedOperator(basis, eigvals, alignment=alignment, mask_indices=mask_indices)


def eigh_by_magnitude(matrix):
    """Dense symmetric eigendecomposition ordered by nonincreasing |eigenvalue|.

    Returns ``(eigvals, eigvecs)`` with ``eigvecs[:, i]`` belonging to
    ``eigvals[i]``; a tie in magnitude keeps ``eigh``'s ascending order, so
    -l comes before +l.  This is the exact oracle the sketched decompositions are
    judged against.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    w, V = np.linalg.eigh(matrix)
    order = magnitude_ranking(w)
    return w[order], V[:, order]
