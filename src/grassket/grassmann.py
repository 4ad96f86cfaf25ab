"""Principal angles and subspace similarity over column-orthonormal bases.

A rank-k subspace of R^D is represented by any D-by-k matrix with orthonormal
columns; every quantity here depends on the column span only (right-rotation
invariant).  The distance family is computed from the principal angles, the
nondecreasing vector sigma in [0, pi/2]^k obtained from the singular values of
Q1^T Q2.  Each distance comes with its analytic maximum, which normalizes it
into a [0, 1] similarity; the overlap similarity needs no normalization and
has the closed-form chance level k/D for uniformly random subspaces.  Every
orthonormal basis the package forms comes from one body, ``range_factors``:
CholeskyQR2 with one Householder fallback.  ``orthonormal_range`` forms its
Q, and ``sketch.seigh`` uses its factors without forming Q.  Uniform (Haar)
bases come from one sampler, its Q factor of a Gaussian matrix; ``qr_rows``
reads k rows of such a basis off one Gram product, and ``haar_rows`` gives k
rows of a D x k one from a stand-in of at most 2k rows whose Gram is drawn
through its Bartlett factor.
"""

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ContractViolation

__all__ = [
    "OrthonormalBasis",
    "PrincipalAngles",
    "MetricKind",
    "metric_max",
    "principal_angles",
    "metric",
    "similarity",
    "overlap",
    "cross_angles",
    "orthonormal_range",
    "range_factors",
    "qr_rows",
    "haar_rows",
    "sample_stiefel",
    "overlap_baseline",
    "overlap_variance",
]

ORTHONORMAL_ATOL = 1e-10

# angles this close to pi/2 force the Fubini-Study distance to its maximum
# (the cosine product underflows long before this threshold matters)
_RIGHT_ANGLE_TOL = 1e-12

_SVAL_EXCESS_TOL = 1e-8

# directions of a matrix whose singular value falls below
# DEGENERATE_COL_RTOL * ||matrix||_F carry no range information;
# range_factors leaves them out of the basis it returns
DEGENERATE_COL_RTOL = 1e-14

# range_factors rescales a matrix whose squared Frobenius norm lies
# outside this range; inside it every singular value above the rank
# threshold has a normal, finite square
_GRAM_RANGE = (2.0 ** -900, 2.0 ** 900)

# qr_rows keeps its single CholeskyQR pass while the estimated condition
# number of the Gram, cond(matrix)^2, is at most this.  Over 30000 Gaussian
# draws up to 40 x 40 the one-pass rows then stayed within 2e-13 of the
# two-pass Q; at D = 2048 a D x k Gaussian stays under it up to k ~ 0.8 D.
ONE_PASS_MAX_COND = 400

# power iterations behind that estimate; in the same sweep 8 of them came
# within a factor 2.6 below the exact condition number
_COND_STEPS = 8

# below this order an upper-triangular inverse is one LAPACK call
_TRIANGULAR_BLOCK = 64


class OrthonormalBasis:
    """A D-by-k real matrix with orthonormal columns."""

    def __init__(self, columns, check=True):
        columns = np.ascontiguousarray(columns, dtype=np.float64)
        if columns.ndim != 2:
            raise ValueError("basis columns must form a 2-d array")
        dim, rank = columns.shape
        if not 1 <= rank <= dim:
            raise ValueError(f"need 1 <= rank <= dim, got rank={rank}, dim={dim}")
        if check:
            gram_err = np.abs(columns.T @ columns - np.eye(rank)).max()
            # inverted comparison so non-finite columns fail too
            if not gram_err <= ORTHONORMAL_ATOL:
                raise ContractViolation(
                    f"columns are not orthonormal (max Gram deviation {gram_err:.3e})"
                )
        self.columns = columns

    @property
    def dim(self):
        return self.columns.shape[0]

    @property
    def rank(self):
        return self.columns.shape[1]

    def __repr__(self):
        return f"OrthonormalBasis(dim={self.dim}, rank={self.rank})"


@dataclass(frozen=True)
class PrincipalAngles:
    """Nondecreasing angles in [0, pi/2] between two equal-rank subspaces."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.float64).ravel()
        if sigma.size < 1:
            raise ValueError("need at least one angle")
        if np.any(sigma[:-1] > sigma[1:]):
            raise ValueError("angles must be nondecreasing")
        if sigma[0] < 0.0 or sigma[-1] > np.pi / 2 + 1e-12:
            raise ValueError("angles must lie in [0, pi/2]")
        object.__setattr__(self, "sigma", sigma)

    @property
    def k(self):
        return len(self.sigma)


class MetricKind(Enum):
    """The supported subspace distance/similarity kinds.

    All but OVERLAP are distances (0 for identical spans); OVERLAP is already
    a similarity in [0, 1].
    """

    GEODESIC = "geodesic"
    CHORDAL_2 = "chordal2"
    CHORDAL_F = "chordalF"
    PROJECTION_2 = "proj2"
    PROJECTION_F = "projF"
    FUBINI_STUDY = "fubini_study"
    OVERLAP = "overlap"


def metric_max(kind, k):
    """Analytic maximum of a metric over rank-k subspace pairs."""
    if k < 1:
        raise ValueError("rank must be positive")
    if kind is MetricKind.GEODESIC:
        return np.sqrt(k) * np.pi / 2
    if kind is MetricKind.CHORDAL_2:
        return np.sqrt(2.0)
    if kind is MetricKind.CHORDAL_F:
        return np.sqrt(2.0 * k)
    if kind is MetricKind.PROJECTION_2:
        return 1.0
    if kind is MetricKind.PROJECTION_F:
        return np.sqrt(k)
    if kind is MetricKind.FUBINI_STUDY:
        return np.pi / 2
    if kind is MetricKind.OVERLAP:
        return 1.0
    raise TypeError(f"unknown metric kind: {kind!r}")


def _check_pair(b1, b2):
    if b1.dim != b2.dim:
        raise ValueError(f"ambient dimensions differ: {b1.dim} vs {b2.dim}")
    if b1.rank != b2.rank:
        raise ValueError(
            f"ranks differ ({b1.rank} vs {b2.rank}); comparing subspaces of "
            "different dimension is unsupported"
        )


def principal_angles(b1, b2):
    """Principal angles between two equal-rank orthonormal bases.

    The singular values of ``b1.columns^T b2.columns`` are the angle cosines;
    they are clipped into [0, 1] before arccos since rounding can push them a
    few ulp past 1.  An excess beyond 1e-8 indicates a non-orthonormal input
    and raises.
    """
    _check_pair(b1, b2)
    return cross_angles(b1.columns.T @ b2.columns)


def cross_angles(cross):
    """Principal angles from the k-by-k cross product Q1^T Q2 of two bases.

    The k rows ``rows`` of a basis Q are its cross product with the
    coordinate basis of ``rows``, so they give the angles between span(Q) and
    that coordinate span.
    """
    svals = np.linalg.svd(cross, compute_uv=False)
    if svals[0] > 1.0 + _SVAL_EXCESS_TOL:
        raise ContractViolation(
            f"cosine {svals[0]!r} exceeds 1 beyond rounding; inputs are not orthonormal"
        )
    svals = np.clip(svals, 0.0, 1.0)
    # svals are nonincreasing, so the angles come out nondecreasing
    return PrincipalAngles(np.arccos(svals))


def metric(kind, angles):
    """Evaluate one metric from precomputed principal angles."""
    sigma = angles.sigma
    if kind is MetricKind.GEODESIC:
        return float(np.linalg.norm(sigma))
    if kind is MetricKind.CHORDAL_2:
        return float(np.max(2.0 * np.sin(sigma / 2.0)))
    if kind is MetricKind.CHORDAL_F:
        return float(np.linalg.norm(2.0 * np.sin(sigma / 2.0)))
    if kind is MetricKind.PROJECTION_2:
        return float(np.max(np.sin(sigma)))
    if kind is MetricKind.PROJECTION_F:
        return float(np.linalg.norm(np.sin(sigma)))
    if kind is MetricKind.FUBINI_STUDY:
        if np.any(sigma >= np.pi / 2 - _RIGHT_ANGLE_TOL):
            return float(np.pi / 2)
        # product of cosines in log space; exp underflow saturates at pi/2
        return float(np.arccos(np.exp(np.sum(np.log(np.cos(sigma))))))
    if kind is MetricKind.OVERLAP:
        return float(np.sum(np.cos(sigma) ** 2) / len(sigma))
    raise TypeError(f"unknown metric kind: {kind!r}")


def similarity(kind, value, k):
    """Normalize a metric value into [0, 1], 1 meaning identical spans.

    Distances map through 1 - value/max(kind, k); overlap passes through
    unchanged.
    """
    top = metric_max(kind, k)
    if not -1e-12 <= value <= top + 1e-12:
        raise ValueError(f"{kind.value} value {value!r} outside [0, {top!r}]")
    if kind is MetricKind.OVERLAP:
        return float(min(max(value, 0.0), 1.0))
    return float(min(max(1.0 - value / top, 0.0), 1.0))


def overlap(b1, b2):
    """Rotation-invariant span similarity |Q1^T Q2|_F^2 / k, in [0, 1].

    Computed directly from the product, no SVD involved; equals the mean
    squared cosine of the principal angles.
    """
    _check_pair(b1, b2)
    if b1.rank == b1.dim:
        # two full-dimensional spans are the whole space; skip the product,
        # whose rounding would blur the exact answer
        return 1.0
    prod = b1.columns.T @ b2.columns
    return float(np.sum(prod * prod) / b1.rank)


def positive_qr(matrix):
    """Householder QR with Q and R signed so diag(R) >= 0; for a Gaussian
    matrix Q is Haar distributed."""
    Q, R = np.linalg.qr(matrix)
    signs = np.where(np.diag(R) < 0, -1.0, 1.0)
    Q *= signs
    R *= signs[:, None]
    return Q, R


def _upper_triangular_inverse(upper):
    """Inverse of an upper-triangular matrix by 2 x 2 block recursion, so the
    bulk of the work runs as matrix products."""
    n = len(upper)
    if n <= _TRIANGULAR_BLOCK:
        return np.linalg.inv(upper)
    h = n // 2
    top = _upper_triangular_inverse(upper[:h, :h])
    bottom = _upper_triangular_inverse(upper[h:, h:])
    inverse = np.zeros_like(upper)
    inverse[:h, :h] = top
    inverse[h:, h:] = bottom
    inverse[:h, h:] = -(top @ upper[:h, h:]) @ bottom
    return inverse


def _inverse_cholesky_factor(gram):
    """R^-1 for the upper-triangular R > 0 on the diagonal with R^T R = gram,
    or None when gram is not numerically positive definite."""
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    return _upper_triangular_inverse(lower.T)


def range_factors(matrix):
    """Factors of the orthonormal basis Q of a tall matrix's column span,
    with the numerical rank as Q's column count.

    CholeskyQR2 (Fukaya et al. 2014) runs while its Gram certificate holds:
    the first pass factors the Gram, R1^T R1 = A^T A, and forms
    B = A R1^-1, and the second factors B^T B = R2^T R2, so that
    Q = B R2^-1 and A = Q R2 R1.  The result is then ``(B, R1^-1, R2^-1)``,
    from which callers form Q or any product with it.  The certificate fails
    where the Gram is not numerically positive definite, or where B is
    further than ||B^T B - I||_F = 1/2 from orthonormal.  That deviation
    grows like eps * cond(matrix)^2, so an accepted matrix has cond(matrix)
    below about 1e8 and full rank.  Otherwise the result is ``(Q, None,
    None)`` with Q from positive_qr's Householder QR; the rank counts the
    singular values of its R above DEGENERATE_COL_RTOL * ||matrix||_F, and
    below full rank Q is compressed onto R's leading left singular vectors.
    A matrix whose squared Frobenius norm lies outside _GRAM_RANGE is first
    rescaled by a power of two, which changes no bit of B, R2^-1 or Q; R1^-1
    is scaled back, so it stays the inverse factor of the matrix as given.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = matrix.T @ matrix
    exponent = 0
    if not _GRAM_RANGE[0] <= np.trace(gram) <= _GRAM_RANGE[1]:
        # exponent 0 for a zero or non-finite matrix, which keeps it as is
        exponent = np.frexp(max(matrix.max(), -matrix.min()))[1]
        if exponent:
            matrix = np.ldexp(matrix, -exponent)
            gram = matrix.T @ matrix
    rinv = _inverse_cholesky_factor(gram)
    if rinv is not None:
        first = matrix @ rinv
        gram = first.T @ first
        # a Gram within 1/2 of I has its eigenvalues in [1/2, 3/2]; the
        # comparison is false for a non-finite first pass, which falls back
        if np.linalg.norm(gram - np.eye(len(gram))) <= 0.5:
            return first, np.ldexp(rinv, -exponent), _inverse_cholesky_factor(gram)
    Q, R = positive_qr(matrix)
    left, singvals, _ = np.linalg.svd(R)
    rank = int(np.count_nonzero(singvals > DEGENERATE_COL_RTOL * np.linalg.norm(matrix)))
    return (Q if rank == matrix.shape[1] else Q @ left[:, :rank]), None, None


def orthonormal_range(matrix):
    """Orthonormal basis Q of the column span of a tall matrix, with the
    numerical rank as its column count: B R2^-1 from range_factors'
    CholeskyQR2, or its Householder Q.  At full rank both paths give the
    matrix a triangular factor with a nonnegative diagonal, so Q is
    positive_qr's up to rounding, and Haar distributed for a Gaussian matrix.
    """
    basis, _, rinv = range_factors(matrix)
    return basis if rinv is None else basis @ rinv


def _gram_condition(gram, rinv):
    """Power-iteration estimate of cond(gram) from below, with gram^-1 = rinv rinv^T."""
    top = bottom = np.full(len(gram), 1.0 / np.sqrt(len(gram)))
    for _ in range(_COND_STEPS):
        top = gram @ top
        top /= np.linalg.norm(top)
        bottom = rinv @ (rinv.T @ bottom)
        bottom /= np.linalg.norm(bottom)
    return float(top @ gram @ top) * float(np.sum((rinv.T @ bottom) ** 2))


def qr_rows(matrix, rows):
    """Rows ``rows`` of orthonormal_range(matrix)'s Q, from one Gram product.

    One CholeskyQR pass gives them as matrix[rows] R^-1 without forming the
    other rows of Q.  Its rounding grows like eps * cond(matrix)^2, so where
    that condition number is estimated above ONE_PASS_MAX_COND, or the Gram
    is not numerically positive definite, the rows come from the full
    orthonormal_range instead.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    # a Gram past the float range is not finite; the fallback rescales
    with np.errstate(over="ignore", invalid="ignore"):
        gram = matrix.T @ matrix
        rinv = _inverse_cholesky_factor(gram)
        # inverted comparison so a non-finite estimate takes the two passes too
        one_pass = rinv is not None and _gram_condition(gram, rinv) <= ONE_PASS_MAX_COND
    if not one_pass:
        return orthonormal_range(matrix)[rows]
    return matrix[rows] @ rinv


@lru_cache(maxsize=16)
def _strict_upper(m, k):
    """Read-only m x k mask of the entries above the diagonal.

    Assigning through it fills them in row-major order, the order of
    ``np.triu_indices(m, 1, k)``.  A baseline grid asks for the same few
    shapes once per sample; the LRU bound keeps at most 16 masks of one
    byte an entry.
    """
    mask = np.triu(np.ones((m, k), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def haar_rows(rng, dim, k):
    """The leading k rows of a Haar-uniform dim x k basis, from O(k^2) numbers.

    For a dim x k Gaussian G those rows are G[:k] R^-1, where R^T R is the
    Gram of G.  That Gram is G[:k]^T G[:k] plus the Gram of the other dim - k
    rows, a Wishart(dim - k, I_k) matrix, so the rows depend on the other
    rows only through it.  Its Bartlett factor (Bartlett 1933), the R of a
    (dim - k) x k Gaussian, has independent entries: sqrt(chi-square(dim - k
    - i)) at (i, i) and N(0, 1) above the diagonal.  The stand-in stacks k
    iid Gaussian rows on the first m = min(k, dim - k) rows of that factor,
    trapezoidal when dim - k < k, and ``qr_rows`` reads its first k rows:
    their law is that of G[:k] R^-1.
    """
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    m = min(k, dim - k)
    standin = np.zeros((k + m, k))
    standin[:k] = rng.standard_normal((k, k))
    factor = standin[k:]
    factor[_strict_upper(m, k)] = rng.standard_normal(m * k - m * (m + 1) // 2)
    factor[np.diag_indices(m)] = np.sqrt(rng.chisquare(dim - k - np.arange(m)))
    return qr_rows(standin, np.arange(k))


def stiefel_from_rng(rng, dim, k):
    """Haar-uniform orthonormal basis drawn from an existing Generator."""
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    return OrthonormalBasis(orthonormal_range(rng.standard_normal((dim, k))), check=False)


def sample_stiefel(dim, k, seed):
    """Haar-uniform orthonormal basis; deterministic per seed."""
    return stiefel_from_rng(np.random.default_rng(seed), dim, k)


def overlap_baseline(dim, k):
    """Expected overlap of two independent uniform rank-k subspaces: k/D."""
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    return k / dim


def overlap_variance(dim, k):
    """Variance of the overlap of two independent uniform rank-k subspaces.

    2 (D - k)^2 / (D^2 (D - 1) (D + 2)); 0 at k = D, where every overlap is 1.
    """
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    if k == dim:
        return 0.0
    return 2.0 * (dim - k) ** 2 / (dim ** 2 * (dim - 1) * (dim + 2))
