"""Matrix-free linear operators and synthetic planted-spectrum operators.

Everything downstream (the sketched eigendecomposition, residual probes)
talks to operators exclusively through block application: a block is a 2-d
float array whose columns are the vectors to map.  Single vectors are
1-column blocks.
"""

import numpy as np

from .errors import ContractViolation
from .grassmann import OrthonormalBasis, orthonormal_range, stiefel_from_rng
from .masks import SparseMask, magnitude_ranking

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "PlantedOperator",
    "CountingOperator",
    "make_planted_operator",
    "eigh_by_magnitude",
]


def _check_block(X, dim):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(
            f"expected a 2-d block of column vectors, got ndim={X.ndim} "
            "(wrap single vectors as 1-column blocks)"
        )
    if X.shape[0] != dim:
        raise ValueError(f"block has {X.shape[0]} rows, operator dimension is {dim}")
    if X.shape[1] < 1:
        raise ValueError("block must contain at least one column")
    if not np.all(np.isfinite(X)):
        raise ValueError("block contains non-finite entries")
    return X


class LinearOperator:
    """A symmetric map of R^dim, applied to column blocks.

    Subclasses implement ``_apply``.  Every operator is symmetric, as a loss
    Hessian is: a matrix that is not is refused where it is wrapped, so
    nothing downstream checks again.  Operators are immutable after
    construction and must be safe to apply concurrently on disjoint blocks.

    ``unique_rank`` is the count of nonzero eigenvalues where the operator
    knows it without a decomposition (a planted spectrum), else None.
    """

    unique_rank = None

    def __init__(self, dim):
        dim = int(dim)
        if dim < 1:
            raise ValueError("operator dimension must be positive")
        self.dim = dim

    def _apply(self, X):
        raise NotImplementedError

    def apply(self, X):
        """Apply the operator to a dim-by-n block, returning dim-by-n."""
        X = _check_block(X, self.dim)
        return self._apply(X)

    def materialize(self):
        """Dense dim-by-dim matrix of the operator, applied to the identity."""
        return self.apply(np.eye(self.dim))

    def reference_eigenbasis(self, k):
        """Exact leading k eigenvectors by |eigenvalue|, and the oracle's name.

        Returns ``(vectors, source)`` with ``vectors`` dim-by-k.  The default
        is a dense eigendecomposition of :meth:`materialize` (source
        ``"dense"``); operators that know their eigenvectors override it.
        """
        return eigh_by_magnitude(self.materialize())[1][:, :k], "dense"


_SYMMETRY_TILE = 128  # tile width of DenseOperator's symmetry check


def _symmetric_within(matrix, tol):
    """Whether |A_ij - A_ji| <= tol for every i, j of a finite square matrix.

    Walks the tile pairs (i, j), j >= i, and stops at the first that fails;
    no temporary is larger than one tile.
    """
    dim, b = matrix.shape[0], _SYMMETRY_TILE
    for i in range(0, dim, b):
        for j in range(i, dim, b):
            # a difference that overflows is inf > tol, still a refusal
            with np.errstate(over="ignore"):
                difference = matrix[i:i + b, j:j + b] - matrix[j:j + b, i:i + b].T
            if np.abs(difference).max() > tol:
                return False
    return True


class DenseOperator(LinearOperator):
    """Operator backed by an explicit matrix (the exact-oracle workhorse).

    The matrix must be finite, square and symmetric to within
    ``1e-12 * max(1, max|A|)`` per entry; anything else is a
    ``ContractViolation``.  The check is one ``max`` and one ``min`` (which
    give both finiteness and the scale) and one pass over pairs of
    cache-sized tiles, with no dim-by-dim temporary.  A float64 matrix is
    kept as given, not copied.
    """

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
        # max and min propagate NaN and reach +-inf, so they see every non-finite entry
        top, bottom = (matrix.max(), matrix.min()) if matrix.size else (0.0, 0.0)
        if not (np.isfinite(top) and np.isfinite(bottom)):
            raise ContractViolation("matrix has non-finite entries")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ContractViolation(f"matrix of shape {matrix.shape} is not square")
        super().__init__(matrix.shape[0])
        if not _symmetric_within(matrix, 1e-12 * max(1.0, top, -bottom)):
            raise ContractViolation("matrix is not symmetric")
        self.matrix = matrix

    def _apply(self, X):
        return self.matrix @ X

    def materialize(self):
        return self.matrix

    @classmethod
    def from_store(cls, path):
        """Load a dense operator from a chunked or merged matrix store."""
        from . import storage

        return cls(storage.read_matrix(path))


class CountingOperator(LinearOperator):
    """Wrapper counting how many columns pass through an operator.

    The test seam for ``seigh``'s measurement budget: ``applied_columns``
    counts the columns applied, ``calls`` the number of block applications.
    What the wrapped operator knows without applying itself, its
    ``unique_rank`` and ``reference_eigenbasis``, passes through uncounted.
    """

    def __init__(self, op):
        super().__init__(op.dim)
        self.op = op
        self.unique_rank = op.unique_rank
        self.applied_columns = 0
        self.calls = 0

    def _apply(self, X):
        self.applied_columns += X.shape[1]
        self.calls += 1
        return self.op.apply(X)

    def reference_eigenbasis(self, k):
        return self.op.reference_eigenbasis(k)


class PlantedOperator(LinearOperator):
    """Symmetric operator with a known low-rank spectrum A = U diag(l) U^T.

    ``basis`` is column-orthonormal and ``eigvals`` sorted by nonincreasing
    magnitude; :func:`make_planted_operator` steers the basis onto a mask.
    """

    def __init__(self, basis, eigvals):
        basis = np.asarray(basis, dtype=np.float64)
        eigvals = np.asarray(eigvals, dtype=np.float64).ravel()
        if basis.ndim != 2 or basis.shape[1] != len(eigvals):
            raise ValueError("basis must be dim-by-rank with one column per eigenvalue")
        if not np.all(np.isfinite(eigvals)):
            raise ValueError(f"planted eigenvalues must be finite, got {eigvals.tolist()}")
        mags = np.abs(eigvals)
        if np.any(mags[:-1] < mags[1:]):
            raise ValueError("eigenvalue magnitudes must be nonincreasing")
        OrthonormalBasis(basis)  # ContractViolation unless orthonormal and finite
        super().__init__(basis.shape[0])
        self.basis = basis
        self.eigvals = eigvals
        self.unique_rank = int(np.count_nonzero(eigvals))

    def _apply(self, X):
        return self.basis @ (self.eigvals[:, None] * (self.basis.T @ X))

    def materialize(self):
        """Dense D-by-D matrix U diag(l) U^T, for oracle comparisons."""
        return self.basis @ (self.eigvals[:, None] * self.basis.T)

    def reference_eigenbasis(self, k):
        return self.basis[:, :k], "planted"


def make_planted_operator(dim, eigvals, mask_target, alignment, seed):
    """Build a planted operator whose top eigenspace is steerable onto a mask.

    The planted basis is a convex blend, re-orthonormalized by CholeskyQR2,
    between a Haar-random basis (alignment 0) and a basis supported exactly
    on the coordinates of ``mask_target`` (alignment 1).  The supported
    basis is rotated onto the Haar one (orthogonal Procrustes) before
    blending, which makes the exact mask/eigenspace overlap nondecreasing in
    ``alignment``: in the aligned frame the blend reduces to independent
    planar rotations, one per principal angle.  The blend overwrites the
    Haar draw and is orthonormalized in place, so the build holds about two
    D x r arrays at its peak.

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
        rows = mask_target.indices
        supported = stiefel_from_rng(rng, r, r).columns  # its rows on the mask
        # Procrustes: rotate the supported basis onto the Haar one so the
        # blend below interpolates along principal-angle planes.
        W, _, Vt = np.linalg.svd(supported.T @ haar[rows])
        haar *= 1.0 - alignment
        haar[rows] += alignment * (supported @ (W @ Vt))
        # per plane it blends two unit vectors at most pi/2 apart, so its
        # singular values are at least 1/sqrt(2) and CholeskyQR2 is safe
        basis = orthonormal_range(haar)

    return PlantedOperator(basis, eigvals)


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
