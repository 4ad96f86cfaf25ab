"""Single-pass sketched eigendecomposition of matrix-free symmetric operators.

``seigh`` is the symmetric specialisation of the core-sketch SVD of Tropp,
Yurtsever, Udell & Cevher (*Streaming low-rank matrix approximation with an
application to scientific simulation*, SIAM J. Sci. Comput. 2019).  That SVD
factors a general operator from independent outer measurements of its column
and row spaces plus an oversampled inner block M = upsilon^T A omega.  For a
symmetric operator the row basis equals the column basis, so one outer
sketch serves both sides and is recycled into the inner block: the result is
Q U Lambda U^T Q^T from one application of the operator to n_inner columns.
The small core (upsilon^T Q)^+ M ((omega^T Q)^+)^T comes from two
minimum-norm least-squares solves, and the eigendecomposition of its
symmetric part gives U and Lambda; ``seigh`` returns the eigenpairs as
V = Q U and Lambda.

``seigh`` accesses the operator only through block application, so it runs
unchanged on implicit operators of any size; the measurement maps are dense
random signs, and all remaining work happens on thin (D x n_outer) or small
(n_inner x n_inner) matrices.  The range basis of the outer sketch, as in
the range finder of Halko, Martinsson & Tropp (SIAM Review 2011), comes
from ``grassmann.range_factors`` and keeps only the sketch's numerical
rank r, so the core is r x r and a decomposition holds r eigenpairs.  Where
that basis comes from CholeskyQR2, Q is never formed: its products with the
measurement maps and with U come from CholeskyQR2's first pass and its two
triangular factors (Fukaya et al. 2014), one of them read off the inner
block, so the sketch adds no D-sized product that the algorithm does not
need.
"""

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractViolation, IntegrityError
from .grassmann import OrthonormalBasis, range_factors
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
    one random bit per entry in row-major order.  ``seigh`` applies the
    operator once, to ``omega_full``, and takes its range basis from the
    trailing n_outer columns of that block, A @ omega_outer.
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
    For ``seigh``'s result, ``rank`` is the numerical rank of the outer
    sketch.  ``core_asymmetry`` records the relative Frobenius asymmetry of
    the core matrix before it was symmetrized, a cheap sanity diagnostic.
    """

    vectors: np.ndarray
    eigvals: np.ndarray
    core_asymmetry: float = 0.0

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


def seigh(A, ens):
    """Sketched eigendecomposition of a symmetric linear operator.

    The operator is applied once, to the n_inner columns of omega_full, and
    the inner block is the one product M = upsilon^T A omega_full.  The
    outer sketch Y = A omega_outer, the trailing n_outer columns of that
    application, is copied out and the D x n_inner block released before
    ``grassmann.range_factors`` factors Y.  On its CholeskyQR2 path
    Y = Q R2 R1 with Q = B R2^-1, and Q is never formed: upsilon^T Q is read
    off the inner block as M[:, outer] R1^-1 R2^-1, omega_full^T Q is
    (omega_full^T B) R2^-1, and the eigenvectors are B (R2^-1 U).  On its
    Householder path Q is explicit, and both products and Q U are formed
    from it.  The small core C = (upsilon^T Q)^+ M ((omega_full^T Q)^+)^T
    comes from two least-squares solves (Tropp et al. 2019, see the module
    docstring).  It is symmetrized and eigendecomposed in a copy rescaled by
    a power of two, so neither step overflows, and the eigenvalues are
    scaled back.  Q spans the numerical range of the outer sketch, so the
    result has as many eigenpairs as that range has dimensions, and
    ContractViolation is raised when it has none, or when the inner block,
    the core's solves or the eigenvalues pass the float range.
    Eigenvalues come back ordered by nonincreasing magnitude, lower index
    first on ties, with the eigenvectors permuted to match.
    """
    if ens.dim != A.dim:
        raise ValueError(
            f"ensemble dimension {ens.dim} does not match operator dimension {A.dim}"
        )

    outer = slice(ens.n_inner - ens.n_outer, ens.n_inner)
    sketch = A.apply(ens.omega_full)                          # D x n_i
    M_inner = ens.upsilon.T @ sketch                          # n_i x n_i
    if not np.isfinite(M_inner).all():  # also catches a non-finite sketch
        raise ContractViolation("inner sketch is not finite: the operator's products overflow")
    outer_sketch = sketch[:, outer].copy()                    # D x n_o
    del sketch

    basis, rinv1, rinv2 = range_factors(outer_sketch)
    del outer_sketch
    if rinv2 is None:  # Householder: basis is Q, D x r
        if basis.shape[1] == 0:
            raise ContractViolation("outer sketch has numerical rank 0")
        left, right = ens.upsilon.T @ basis, ens.omega_full.T @ basis
    else:  # CholeskyQR2: basis is B, D x n_o
        left = M_inner[:, outer] @ (rinv1 @ rinv2)
        right = (ens.omega_full.T @ basis) @ rinv2
    half = _lstsq_minnorm(left, M_inner, "left core")         # r x n_i
    core = _lstsq_minnorm(right, half.T, "right core").T      # r x r
    if not np.isfinite(core).all():
        raise ContractViolation("sketch core is not finite: its solves overflow")

    # rescaled by a power of two so that neither the norms nor the
    # symmetrization overflow or underflow
    exponent = np.frexp(np.abs(core).max())[1]
    scaled = np.ldexp(core, -exponent)
    core_norm = np.linalg.norm(scaled)
    asymmetry = 0.0 if core_norm == 0 else float(
        np.linalg.norm(scaled - scaled.T) / core_norm
    )
    eigvals, U = np.linalg.eigh(0.5 * (scaled + scaled.T))
    order = magnitude_ranking(eigvals)
    with np.errstate(over="ignore"):
        eigvals = np.ldexp(eigvals[order], exponent)
    if not np.isfinite(eigvals).all():
        raise ContractViolation("sketch eigenvalues are not finite: they pass the float range")
    U = U[:, order] if rinv2 is None else rinv2 @ U[:, order]
    return SketchedEigh(vectors=basis @ U, eigvals=eigvals, core_asymmetry=asymmetry)


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
    metadata adds eigvals, core_asymmetry and numerical_rank, the column
    count, to ``metadata``."""
    from . import storage

    meta = dict(metadata or {})
    meta["eigvals"] = [float(v) for v in dec.eigvals]
    meta["core_asymmetry"] = dec.core_asymmetry
    meta["numerical_rank"] = dec.rank
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
    numerical_rank differs from the stored column count."""
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
    if eigvals.shape != (store.cols,) or type(rank) is not int or rank != store.cols:
        raise IntegrityError(f"{store.path}: {eigvals.size} eigvals and numerical_rank "
                             f"{rank!r} do not fit {store.cols} stored eigenvectors")
    return SketchedEigh(vectors=storage.read_columns(store, 0, store.cols), eigvals=eigvals,
                        core_asymmetry=asymmetry)
