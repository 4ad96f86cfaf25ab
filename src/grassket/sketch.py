"""Single-pass sketched decompositions of matrix-free linear operators.

Two decompositions are provided, both following the core-sketch design of
Tropp, Yurtsever, Udell & Cevher (*Streaming low-rank matrix approximation
with an application to scientific simulation*, SIAM J. Sci. Comput. 2019).
``ssvd`` factors a general operator as P U Sigma V^T Q^T from independent
outer measurements (which span the column and row spaces) plus an
oversampled inner measurement block M = upsilon^T A omega.  ``seigh`` is the
symmetric variant: conjugate symmetry lets the row basis equal the column
basis and the outer measurements are recycled into the inner block, giving
Q U Lambda U^T Q^T from n_inner operator applications total.  In both, the
small core (upsilon^T P)^+ M ((omega^T Q)^+)^T comes from two minimum-norm
least-squares solves; ``ssvd`` then takes its SVD, ``seigh`` the
eigendecomposition of its symmetric part.

Both access the operator only through block application, so they run
unchanged on implicit operators of any size; all remaining work happens on
thin (D x n_outer) or small (n_inner x n_inner) matrices.  Range bases come
from a Householder QR of the outer sketch, as in the range finder of Halko,
Martinsson & Tropp (SIAM Review 2011); the singular values of its small R
factor give the numerical rank, which ``seigh`` reports as a field.
"""

import ctypes
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .errors import ContractViolation
from .grassmann import OrthonormalBasis
from .masks import magnitude_ranking

__all__ = [
    "MeasurementEnsemble",
    "SketchedEigh",
    "SketchedSvd",
    "draw_measurements",
    "ssvd",
    "seigh",
    "truncate",
    "residual_estimate",
    "residual_probe_norms",
    "save_sketched_eigh",
    "load_sketched_eigh",
    "blas_threads_for",
]

logger = logging.getLogger(__name__)

# directions of an outer sketch whose singular value falls below
# DEGENERATE_COL_RTOL * ||sketch||_F carry no range information; the range
# basis keeps deterministic orthonormal completions for them and the matching
# trailing spectral values are reported as exact zeros
DEGENERATE_COL_RTOL = 1e-14

# at or below this dimension overlap_curve runs its sketch on one BLAS thread:
# OpenBLAS threads the unblocked Householder QR of the thin sketch column by
# column, which for D x 80 on a 2-vCPU x86-64 takes 19 ms against 11 ms on one
# thread at D=2000 (58 against 66 ms at D=8000), and its idle worker keeps
# spinning on the second core between calls
ONE_THREAD_MAX_DIM = 4000


def default_inner_count(n_outer):
    """Default inner oversampling when a caller only picks n_outer."""
    return 2 * n_outer + 1


@dataclass
class MeasurementEnsemble:
    """Reproducible Gaussian measurement matrices for one operator side.

    Two core matrices are materialized eagerly: ``upsilon`` (dim x n_inner)
    and ``omega_full`` (dim x n_inner).  The leading n_inner - n_outer columns
    of ``omega_full`` (``omega_inner``) and its trailing n_outer columns
    (``omega_outer``) are views; all three blocks come from mutually
    independent streams of one seed.  Two further independent matrices are
    generated lazily for ``ssvd``, which needs uncorrelated outer/inner
    measurements on both sides instead of the recycling ``seigh`` performs.
    """

    seed: int
    dim: int
    n_inner: int
    n_outer: int
    upsilon: np.ndarray = field(init=False)
    omega_full: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 1 <= self.n_outer <= self.n_inner:
            raise ValueError(
                f"need 1 <= n_outer <= n_inner, got n_outer={self.n_outer}, "
                f"n_inner={self.n_inner}"
            )
        if self.n_inner > self.dim:
            raise ValueError(
                f"n_inner={self.n_inner} exceeds operator dimension {self.dim}"
            )
        streams = self._streams
        split = self.n_inner - self.n_outer
        self.upsilon = streams[0].standard_normal((self.dim, self.n_inner))
        self.omega_full = np.empty((self.dim, self.n_inner))
        self.omega_full[:, :split] = streams[1].standard_normal((self.dim, split))
        self.omega_full[:, split:] = streams[2].standard_normal((self.dim, self.n_outer))

    @property
    def omega_inner(self):
        """The leading dim x (n_inner - n_outer) columns of ``omega_full``."""
        return self.omega_full[:, :self.n_inner - self.n_outer]

    @property
    def omega_outer(self):
        """The trailing dim x n_outer columns of ``omega_full``."""
        return self.omega_full[:, self.n_inner - self.n_outer:]

    @cached_property
    def _streams(self):
        children = np.random.SeedSequence(self.seed).spawn(5)
        return [np.random.default_rng(c) for c in children]

    @cached_property
    def upsilon_outer(self):
        """Extra dim x n_outer left outer matrix, independent of the core three."""
        return self._streams[3].standard_normal((self.dim, self.n_outer))

    @cached_property
    def omega_inner_full(self):
        """Extra dim x n_inner right inner matrix, independent of the core three."""
        return self._streams[4].standard_normal((self.dim, self.n_inner))


def draw_measurements(dim, n_inner, n_outer, seed):
    """Draw a reproducible Gaussian measurement ensemble.

    Same seed gives bit-identical matrices; the blocks come from mutually
    independent streams.
    """
    return MeasurementEnsemble(seed=int(seed), dim=int(dim), n_inner=int(n_inner),
                               n_outer=int(n_outer))


@dataclass
class SketchedEigh:
    """Approximate eigendecomposition Q U diag(eigvals) U^T Q^T.

    ``Q`` is dim x n_outer column-orthonormal, ``U`` n_outer x rank
    column-orthonormal (square before truncation) and ``eigvals`` is sorted by
    nonincreasing magnitude.  ``core_asymmetry`` records the relative
    Frobenius asymmetry of the core matrix before it was symmetrized, a cheap
    sanity diagnostic.  ``numerical_rank`` counts the leading eigenvalues
    backed by range information; the ones past it are exact zeros, and
    eigenspaces past it are not unique.  It defaults to ``rank``.
    """

    Q: np.ndarray
    U: np.ndarray
    eigvals: np.ndarray
    core_asymmetry: float = 0.0
    numerical_rank: int = None

    def __post_init__(self):
        if self.numerical_rank is None:
            self.numerical_rank = self.rank

    @property
    def dim(self):
        return self.Q.shape[0]

    @property
    def n_outer(self):
        return self.Q.shape[1]

    @property
    def rank(self):
        return len(self.eigvals)

    def eigenbasis(self, k=None):
        """Leading-k approximate eigenvectors as an OrthonormalBasis."""
        k = self.rank if k is None else int(k)
        if not 1 <= k <= self.rank:
            raise ValueError(f"need 1 <= k <= {self.rank}, got {k}")
        return OrthonormalBasis(self.Q @ self.U[:, :k], check=False)

    def reconstruct(self, X):
        """Apply the reconstructed operator Q U diag(l) U^T Q^T to a block."""
        return self.Q @ (self.U @ (self.eigvals[:, None] * (self.U.T @ (self.Q.T @ X))))

    def dense(self):
        scaled = self.U * self.eigvals
        return self.Q @ (scaled @ self.U.T) @ self.Q.T


@dataclass
class SketchedSvd:
    """Approximate SVD P U diag(singvals) V^T Q^T of a general operator."""

    P: np.ndarray
    U: np.ndarray
    singvals: np.ndarray
    V: np.ndarray
    Q: np.ndarray

    @property
    def rank(self):
        return len(self.singvals)

    def left_basis(self, k=None):
        k = self.rank if k is None else int(k)
        return OrthonormalBasis(self.P @ self.U[:, :k], check=False)

    def right_basis(self, k=None):
        k = self.rank if k is None else int(k)
        return OrthonormalBasis(self.Q @ self.V[:, :k], check=False)

    def reconstruct(self, X):
        return self.P @ (self.U @ (self.singvals[:, None] * (self.V.T @ (self.Q.T @ X))))

    def dense(self):
        return self.P @ ((self.U * self.singvals) @ self.V.T) @ self.Q.T


@cache
def _openblas_thread_setter():
    """``openblas_set_num_threads_local`` of numpy's OpenBLAS, or None.

    It sets the BLAS thread count of the calling thread only and returns the
    count it replaces; other BLAS builds, and OpenBLAS before 0.3.27, lack it.
    """
    package = Path(np.__file__).parent
    for lib in sorted([*package.parent.glob("numpy.libs/*openblas*"),
                       *package.glob(".dylibs/*openblas*")]):
        try:
            setter = ctypes.CDLL(str(lib)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


@contextmanager
def blas_threads_for(dim):
    """One BLAS thread for the calling thread while dim <= ONE_THREAD_MAX_DIM.

    The thread count is restored on exit; above the cap, or without a
    per-thread setter, BLAS keeps its default.
    """
    setter = _openblas_thread_setter() if dim <= ONE_THREAD_MAX_DIM else None
    previous = setter(1) if setter is not None else None
    try:
        yield
    finally:
        if setter is not None:
            setter(previous)


def _orthonormal_range(M):
    """Orthonormal basis for the column span of a sketch block, and its rank.

    Householder QR gives Q; the singular values of the small square R are
    those of M, so the directions below DEGENERATE_COL_RTOL * ||M||_F (zero
    operator, rank-deficient sketches) are counted from them.  Q is already
    a deterministic orthonormal completion for those directions, so it is
    not rotated; callers zero the trailing spectral values instead.
    """
    Q, R = np.linalg.qr(M)
    singvals = np.linalg.svd(R, compute_uv=False)
    threshold = DEGENERATE_COL_RTOL * np.linalg.norm(M)
    return Q, int(np.count_nonzero(singvals > threshold))


def _lstsq_minnorm(A, B, what):
    """Minimum-norm least-squares solve of A x = B with the default cutoff.

    rcond=None applies the cutoff max(A.shape) * eps * sigma_max; directions
    below it are dropped (minimum-norm treatment) with a logged warning.
    """
    solution, _, rank, _ = np.linalg.lstsq(A, B, rcond=None)
    if rank < min(A.shape):
        logger.warning(
            "%s least-squares system is rank deficient (%d < %d); "
            "using the minimum-norm solution", what, rank, min(A.shape),
        )
    return solution


def _core(upsilon, P, M, omega, Q):
    """Core C = (upsilon^T P)^+ M ((omega^T Q)^+)^T of an inner block M.

    When A = P C Q^T, the inner block M = upsilon^T A omega equals
    (upsilon^T P) C (omega^T Q)^T, so C follows from two minimum-norm
    least-squares solves, one per side.
    """
    half = _lstsq_minnorm(upsilon.T @ P, M, "left core")            # n_o x n_i
    return _lstsq_minnorm(omega.T @ Q, half.T, "right core").T      # n_o x n_o


def _check_ensemble(ens, dim, side):
    if ens.dim != dim:
        raise ValueError(
            f"ensemble dimension {ens.dim} does not match operator {side} {dim}"
        )


def ssvd(A, ens, right_ens=None):
    """Sketched singular value decomposition of a general linear operator.

    Outer measurements sketch the column space (A @ omega, orthonormalized to
    P) and the row space (A^T @ upsilon, orthonormalized to Q).  The
    oversampled inner block M_I = upsilon_inner^T A omega_inner then pins down
    the core C = (upsilon_inner^T P)^+ M_I ((omega_inner^T Q)^+)^T, whose
    dense SVD lifts to the full factorization P U Sigma V^T Q^T.

    For square operators a single ensemble serves both sides (its five
    sub-streams keep all four measurement matrices independent); rectangular
    operators need ``right_ens`` sized to the column dimension.  Costs
    n_inner + 2 n_outer applied columns.
    """
    left = ens
    right = ens if right_ens is None else right_ens
    _check_ensemble(left, A.rows, "row count")
    _check_ensemble(right, A.cols, "column count")
    if (left.n_inner, left.n_outer) != (right.n_inner, right.n_outer):
        raise ValueError("left and right ensembles must agree on n_inner/n_outer")

    ups_inner = left.upsilon                # D_L x n_i
    ups_outer = left.upsilon_outer          # D_L x n_o
    omg_inner = right.omega_inner_full      # D_R x n_i
    omg_outer = right.omega_outer           # D_R x n_o

    col_sketch = A.apply(omg_outer)         # D_L x n_o, spans the column space
    row_sketch = A.apply_adjoint(ups_outer) # D_R x n_o, spans the row space
    M_inner = ups_inner.T @ A.apply(omg_inner)  # n_i x n_i

    P, rank_p = _orthonormal_range(col_sketch)
    Q, rank_q = _orthonormal_range(row_sketch)

    U, singvals, Vt = np.linalg.svd(_core(ups_inner, P, M_inner, omg_inner, Q))
    singvals[min(rank_p, rank_q):] = 0.0
    return SketchedSvd(P=P, U=U, singvals=singvals, V=Vt.T, Q=Q)


def seigh(A, ens):
    """Sketched eigendecomposition of a hermitian linear operator.

    The outer sketch M_O = A @ omega_outer is orthonormalized into the range
    basis Q and recycled: together with A @ omega_inner it forms the right
    half of the inner block M_I = upsilon^T A [omega_inner, omega_outer], so
    the operator is applied to exactly n_inner columns in total.  The small
    core C = (upsilon^T Q)^+ M_I ((omega_full^T Q)^+)^T comes from two
    least-squares solves (Tropp et al. 2019, see the module docstring), is
    symmetrized and eigendecomposed.  Eigenvalues come back ordered by
    nonincreasing magnitude, lower index first on ties, with the columns of U
    permuted to match.  Those past the numerical rank of the outer sketch
    are exact zeros; the rank is returned as ``numerical_rank``.
    """
    if not A.hermitian:
        raise ContractViolation("seigh requires an operator flagged hermitian")
    _check_ensemble(ens, A.rows, "dimension")

    outer_sketch = A.apply(ens.omega_outer)                   # D x n_o
    M_inner = ens.upsilon.T @ outer_sketch                    # outer columns of M_I
    if ens.n_inner > ens.n_outer:
        M_inner = np.hstack([ens.upsilon.T @ A.apply(ens.omega_inner), M_inner])

    Q, numerical_rank = _orthonormal_range(outer_sketch)
    core = _core(ens.upsilon, Q, M_inner, ens.omega_full, Q)  # n_o x n_o

    core_norm = np.linalg.norm(core)
    asymmetry = 0.0 if core_norm == 0 else float(
        np.linalg.norm(core - core.T) / core_norm
    )
    core = 0.5 * (core + core.T)

    eigvals, U = np.linalg.eigh(core)
    order = magnitude_ranking(eigvals)
    eigvals, U = eigvals[order], U[:, order]
    eigvals[numerical_rank:] = 0.0
    return SketchedEigh(Q=Q, U=U, eigvals=eigvals, core_asymmetry=asymmetry,
                        numerical_rank=numerical_rank)


def truncate(dec, k):
    """Keep the k leading spectral columns of a sketched decomposition."""
    k = int(k)
    if not 1 <= k <= dec.rank:
        raise ValueError(f"need 1 <= k <= {dec.rank}, got k={k}")
    if isinstance(dec, SketchedEigh):
        return replace(dec, U=dec.U[:, :k], eigvals=dec.eigvals[:k],
                       numerical_rank=min(dec.numerical_rank, k))
    if isinstance(dec, SketchedSvd):
        return replace(dec, U=dec.U[:, :k], singvals=dec.singvals[:k], V=dec.V[:, :k])
    raise TypeError(f"cannot truncate {type(dec).__name__}")


def residual_probe_norms(A, dec, n_probe, seed):
    """Squared residual norms ||(A - reconstruction) g||^2 for Gaussian probes g.

    Each squared norm is an unbiased estimate of the squared Frobenius error
    of the reconstruction; the samples let callers form standard errors.
    """
    if n_probe < 1:
        raise ValueError("need at least one probe")
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((A.cols, int(n_probe)))
    residual = A.apply(probes) - dec.reconstruct(probes)
    return np.sum(residual * residual, axis=0)


def residual_estimate(A, dec, n_probe, seed):
    """Probe-based estimate of the Frobenius reconstruction error."""
    return float(np.sqrt(np.mean(residual_probe_norms(A, dec, n_probe, seed))))


def save_sketched_eigh(dec, path, metadata=None):
    """Persist a sketched eigendecomposition as two column stores plus manifest."""
    from . import storage

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = dict(metadata or {})
    meta["eigvals"] = [float(v) for v in dec.eigvals]
    meta["core_asymmetry"] = dec.core_asymmetry
    meta["numerical_rank"] = dec.numerical_rank
    for name, block in (("q", dec.Q), ("u", dec.U)):
        store = storage.create_layout(
            path / f"{name}.store", block.shape[0], block.shape[1],
            chunk_cols=max(1, block.shape[1] // 4), metadata=meta, overwrite=True,
        )
        storage.write_columns(store, 0, block)
    return path


def load_sketched_eigh(path):
    from . import storage

    path = Path(path)
    q_store = storage.open_store(path / "q.store")
    Q = storage.read_columns(q_store, 0, q_store.cols)
    u_store = storage.open_store(path / "u.store")
    U = storage.read_columns(u_store, 0, u_store.cols)
    meta = q_store.metadata
    return SketchedEigh(
        Q=Q, U=U,
        eigvals=np.asarray(meta["eigvals"], dtype=np.float64),
        core_asymmetry=float(meta.get("core_asymmetry", 0.0)),
        numerical_rank=meta.get("numerical_rank"),
    )
