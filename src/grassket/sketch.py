"""Single-pass sketched eigendecomposition of matrix-free symmetric operators.

``seigh`` is the symmetric specialisation of the core-sketch SVD of Tropp,
Yurtsever, Udell & Cevher (*Streaming low-rank matrix approximation with an
application to scientific simulation*, SIAM J. Sci. Comput. 2019).  That SVD
factors a general operator from independent outer measurements of its column
and row spaces plus an oversampled inner block M = upsilon^T A omega.  For a
symmetric operator the row basis equals the column basis, so one outer
sketch serves both sides and is recycled into the inner block: the result is
Q U Lambda U^T Q^T from n_inner operator applications in total.  The small
core (upsilon^T Q)^+ M ((omega^T Q)^+)^T comes from two minimum-norm
least-squares solves, and the eigendecomposition of its symmetric part gives
U and Lambda; ``seigh`` returns the eigenpairs as V = Q U and Lambda.

``seigh`` accesses the operator only through block application, so it runs
unchanged on implicit operators of any size; the measurement maps are dense
random signs, and all remaining work happens on thin (D x n_outer) or small
(n_inner x n_inner) matrices.  The range basis of the outer sketch, as in
the range finder of Halko, Martinsson & Tropp (SIAM Review 2011), comes from
CholeskyQR2 (Fukaya et al. 2014), two passes of Gram products and
triangular solves.  Where its Gram certificate fails (rank-deficient or
badly conditioned sketches) a Householder QR gives the basis instead, and
the singular values of its small R factor give the numerical rank, which
``seigh`` reports as a field.
"""

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IntegrityError
from .grassmann import OrthonormalBasis, gram_qr
from .masks import magnitude_ranking

__all__ = [
    "MeasurementEnsemble",
    "SketchedEigh",
    "draw_measurements",
    "seigh",
    "residual_probe_norms",
    "save_sketched_eigh",
    "load_sketched_eigh",
]

logger = logging.getLogger(__name__)

# directions of an outer sketch whose singular value falls below
# DEGENERATE_COL_RTOL * ||sketch||_F carry no range information; the range
# basis keeps deterministic orthonormal completions for them and the matching
# trailing spectral values are reported as exact zeros
DEGENERATE_COL_RTOL = 1e-14


def default_inner_count(n_outer):
    """Default inner oversampling when a caller only picks n_outer."""
    return 2 * n_outer + 1


@dataclass
class MeasurementEnsemble:
    """Reproducible random-sign measurement matrices for one symmetric operator.

    Two matrices are materialized: ``upsilon`` (dim x n_inner) and
    ``omega_full`` (dim x n_inner), whose leading n_inner - n_outer columns
    (``omega_inner``) and trailing n_outer columns (``omega_outer``) are views.
    Every entry is an iid sign, +1 or -1 with probability 1/2 (Achlioptas
    2003), the dense sign maps of Tropp et al. 2019; ``residual_probe_norms``
    and ``storage.fill_gaussian`` keep Gaussian draws.  Streams 0, 1 and 2 of
    the seed fill ``upsilon``, ``omega_inner`` and ``omega_outer`` in place,
    one random bit per entry in row-major order.  ``seigh`` orthonormalizes
    A @ omega_outer into its range basis and recycles that sketch into the
    inner block, so the operator is applied to n_inner columns in total.
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
        streams = [np.random.default_rng(c)
                   for c in np.random.SeedSequence(self.seed).spawn(3)]
        self.upsilon = np.empty((self.dim, self.n_inner))
        self.omega_full = np.empty((self.dim, self.n_inner))
        for rng, block in zip(streams, (self.upsilon, self.omega_inner, self.omega_outer)):
            _fill_signs(rng, block)

    @property
    def omega_inner(self):
        """The leading dim x (n_inner - n_outer) columns of ``omega_full``."""
        return self.omega_full[:, :self.n_inner - self.n_outer]

    @property
    def omega_outer(self):
        """The trailing dim x n_outer columns of ``omega_full``."""
        return self.omega_full[:, self.n_inner - self.n_outer:]


def _fill_signs(rng, block):
    """Fill ``block`` in place with signs, one bit of ``rng.bytes`` per entry."""
    bits = np.unpackbits(np.frombuffer(rng.bytes(-(-block.size // 8)), np.uint8),
                         count=block.size)
    np.subtract(0.5, bits.reshape(block.shape), out=block)  # a set bit gives -1
    block *= 2.0


def draw_measurements(dim, n_inner, n_outer, seed):
    """Draw a reproducible random-sign ``MeasurementEnsemble`` from ``seed``."""
    return MeasurementEnsemble(seed=int(seed), dim=int(dim), n_inner=int(n_inner),
                               n_outer=int(n_outer))


@dataclass
class SketchedEigh:
    """Approximate eigendecomposition V diag(eigvals) V^T.

    ``vectors`` (V) is dim x rank column-orthonormal and ``eigvals`` is
    sorted by nonincreasing magnitude, column j of V belonging to eigvals[j].
    ``core_asymmetry`` records the relative Frobenius asymmetry of the core
    matrix before it was symmetrized, a cheap sanity diagnostic.
    ``numerical_rank`` counts the leading eigenvalues backed by range
    information; the ones past it are exact zeros, and eigenspaces past it
    are not unique.  It defaults to ``rank``.
    """

    vectors: np.ndarray
    eigvals: np.ndarray
    core_asymmetry: float = 0.0
    numerical_rank: int = None

    def __post_init__(self):
        if self.numerical_rank is None:
            self.numerical_rank = self.rank

    @property
    def dim(self):
        return self.vectors.shape[0]

    @property
    def rank(self):
        return len(self.eigvals)

    def eigenbasis(self, k=None):
        """Leading-k approximate eigenvectors as an OrthonormalBasis."""
        k = self.rank if k is None else int(k)
        if not 1 <= k <= self.rank:
            raise ValueError(f"need 1 <= k <= {self.rank}, got {k}")
        return OrthonormalBasis(self.vectors[:, :k], check=False)

    def reconstruct(self, X):
        """Apply the reconstructed operator V diag(l) V^T to a block."""
        return self.vectors @ (self.eigvals[:, None] * (self.vectors.T @ X))


def _orthonormal_range(M):
    """Orthonormal basis for the column span of a sketch block, and its rank.

    CholeskyQR2 (``grassmann.gram_qr``) gives Q when its Gram certificate
    holds.  That bounds cond(M) by about 1e8, so every singular value of M
    lies far above DEGENERATE_COL_RTOL * ||M||_F and the rank is n_outer.
    Otherwise Householder QR gives Q; the singular values of the small square
    R are those of M, so the directions below DEGENERATE_COL_RTOL * ||M||_F
    (zero operator, rank-deficient sketches) are counted from them.  Q is
    already a deterministic orthonormal completion for those directions, so
    it is not rotated; callers zero the trailing spectral values instead.
    """
    Q = gram_qr(M)
    if Q is not None:
        return Q, M.shape[1]
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


def _core(upsilon, Q, M, omega):
    """Core C = (upsilon^T Q)^+ M ((omega^T Q)^+)^T of an inner block M.

    When A = Q C Q^T, the inner block M = upsilon^T A omega equals
    (upsilon^T Q) C (omega^T Q)^T, so C follows from two minimum-norm
    least-squares solves, one per side.
    """
    half = _lstsq_minnorm(upsilon.T @ Q, M, "left core")            # n_o x n_i
    return _lstsq_minnorm(omega.T @ Q, half.T, "right core").T      # n_o x n_o


def seigh(A, ens):
    """Sketched eigendecomposition of a symmetric linear operator.

    The outer sketch M_O = A @ omega_outer is orthonormalized into the range
    basis Q and recycled: together with A @ omega_inner it forms the right
    half of the inner block M_I = upsilon^T A [omega_inner, omega_outer], so
    the operator is applied to exactly n_inner columns in total.  The small
    core C = (upsilon^T Q)^+ M_I ((omega_full^T Q)^+)^T comes from two
    least-squares solves (Tropp et al. 2019, see the module docstring), is
    symmetrized and eigendecomposed into U and Lambda, and the eigenvectors
    Q U are formed once, as ``vectors``.  Eigenvalues come back ordered by
    nonincreasing magnitude, lower index first on ties, with the eigenvectors
    permuted to match.  Those past the numerical rank of the outer sketch
    are exact zeros; the rank is returned as ``numerical_rank``.
    """
    if ens.dim != A.dim:
        raise ValueError(
            f"ensemble dimension {ens.dim} does not match operator dimension {A.dim}"
        )

    outer_sketch = A.apply(ens.omega_outer)                   # D x n_o
    M_inner = ens.upsilon.T @ outer_sketch                    # outer columns of M_I
    if ens.n_inner > ens.n_outer:
        M_inner = np.hstack([ens.upsilon.T @ A.apply(ens.omega_inner), M_inner])

    Q, numerical_rank = _orthonormal_range(outer_sketch)
    core = _core(ens.upsilon, Q, M_inner, ens.omega_full)     # n_o x n_o

    core_norm = np.linalg.norm(core)
    asymmetry = 0.0 if core_norm == 0 else float(
        np.linalg.norm(core - core.T) / core_norm
    )
    core = 0.5 * (core + core.T)

    eigvals, U = np.linalg.eigh(core)
    order = magnitude_ranking(eigvals)
    eigvals = eigvals[order]
    eigvals[numerical_rank:] = 0.0
    return SketchedEigh(vectors=Q @ U[:, order], eigvals=eigvals,
                        core_asymmetry=asymmetry, numerical_rank=numerical_rank)


def residual_probe_norms(A, dec, n_probe, seed):
    """Squared residual norms ||(A - reconstruction) g||^2 for Gaussian probes g.

    Each squared norm is an unbiased estimate of the squared Frobenius error
    of the reconstruction; the samples let callers form standard errors.
    """
    if n_probe < 1:
        raise ValueError("need at least one probe")
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((A.dim, int(n_probe)))
    residual = A.apply(probes) - dec.reconstruct(probes)
    return np.sum(residual * residual, axis=0)


def save_sketched_eigh(dec, path, metadata=None):
    """Persist ``dec.vectors`` as the column store ``path/vectors.store``, whose
    metadata adds eigvals, core_asymmetry and numerical_rank to ``metadata``."""
    from . import storage

    meta = dict(metadata or {})
    meta["eigvals"] = [float(v) for v in dec.eigvals]
    meta["core_asymmetry"] = dec.core_asymmetry
    meta["numerical_rank"] = dec.numerical_rank
    store = storage.create_layout(
        Path(path) / "vectors.store", dec.dim, dec.rank,
        chunk_cols=max(1, dec.rank // 4), metadata=meta, overwrite=True,
    )
    storage.write_columns(store, 0, dec.vectors)
    return Path(path)


def _json_number(value):
    """A JSON number as a float; TypeError for any other value, booleans
    included, and OverflowError for an integer past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def load_sketched_eigh(path):
    """Read a ``save_sketched_eigh`` directory; IntegrityError if its eigvals
    or core_asymmetry are not numbers, or if the eigvals count or
    numerical_rank does not fit the stored columns."""
    from . import storage

    store = storage.open_store(Path(path) / "vectors.store")
    meta = store.metadata
    try:
        eigvals = np.array([_json_number(v) for v in meta.get("eigvals")], dtype=np.float64)
        asymmetry = _json_number(meta.get("core_asymmetry", 0.0))
    except (TypeError, OverflowError) as exc:
        raise IntegrityError(f"{store.path}: eigvals and core_asymmetry must be "
                             f"numbers: {exc}") from exc
    rank = meta.get("numerical_rank")
    if eigvals.shape != (store.cols,) or type(rank) is not int or not 0 <= rank <= store.cols:
        raise IntegrityError(f"{store.path}: {eigvals.size} eigvals and numerical_rank "
                             f"{rank!r} do not fit {store.cols} stored eigenvectors")
    return SketchedEigh(vectors=storage.read_columns(store, 0, store.cols), eigvals=eigvals,
                        core_asymmetry=asymmetry, numerical_rank=rank)
