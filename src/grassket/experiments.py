"""Runnable studies: random-subspace baselines, the chance-level check, and
exact-vs-sketched overlap curves.

The baseline study draws random subspace or mask pairs over a grid of
dimensions and sparsity ratios and tabulates the distribution of every
requested normalized similarity, reproducing the empirical chance levels the
overlap analysis is judged against.  The overlap curve study runs the full
pipeline on an operator: magnitude masks from a parameter vector, exact
overlap from the operator's own reference eigenbasis (planted eigenpairs, or
a dense eigendecomposition), sketched overlap from the truncated sketched
eigendecomposition, and the k/D chance level.
"""

import ctypes
import logging
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .grassmann import (MetricKind, PrincipalAngles, cross_angles, haar_rows,
                        metric, overlap_baseline, overlap_variance, similarity)
from .masks import magnitude_ranking, mask_from_rng, nested_mask_overlaps
from .sketch import draw_measurements, seigh

__all__ = [
    "MODALITIES",
    "BaselineRow",
    "BaselineResult",
    "CurvePoint",
    "OverlapCurve",
    "LemmaCheck",
    "rho_to_k",
    "run_baseline",
    "verify_lemma",
    "ranked_theta",
    "overlap_curve",
]

logger = logging.getLogger(__name__)

# pair modalities: O = uniform orthonormal basis, M = uniform sparse mask
MODALITIES = ("OO", "OM", "MM")

# beyond this dimension the exact column is skipped for every operator; a
# planted reference would cost only O(D k), but perfbench's overlap-sketched
# workload (D = 20000) counts a filled exact column there as a failure
DENSE_ORACLE_MAX_DIM = 4000

# chance-level cells with k at or below this draw their samples on one BLAS
# thread.  Their products take stand-ins of at most 2k x k whatever D is, too
# small for OpenBLAS threading to pay, and an idle worker keeps spinning on a
# second core between calls.  On a 2-vCPU x86-64, one thread won at k <= 256
# for D = 2048, 8192 and 20000, tied at k = 300-350 and lost from k = 410
ONE_THREAD_MAX_K = 256


def rho_to_k(dim, rho):
    """Sparsity ratio to rank: k = max(1, round(rho * D)), half away from zero."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    return max(1, int(np.floor(rho * dim + 0.5)))


@dataclass(frozen=True)
class BaselineRow:
    modality: str
    metric: str
    dim: int
    k: int
    rho: float
    samples: int
    median: float
    p5: float
    p95: float
    mean: float
    std: float


@dataclass
class BaselineResult:
    """Distribution statistics for every (D, rho, metric, modality) cell."""

    rows: list
    seed: int

    def cell(self, modality, kind, dim, rho):
        kind = kind.value if isinstance(kind, MetricKind) else kind
        for r in self.rows:
            if (r.modality, r.metric, r.dim) == (modality, kind, dim) and r.rho == rho:
                return r
        raise KeyError(f"no cell ({modality}, {kind}, D={dim}, rho={rho})")


def _pair_sample(modality, kinds, rng, dim, k):
    """One similarity sample per metric in ``kinds``, all read off one random
    pair of rank-k subspaces of R^dim.

    By rotation invariance one Haar basis against a fixed coordinate span has
    the overlap and angle law of two independent Haar bases, and every k-row
    span gives the same law.  So OO and OM pairs both take the k x k cross
    product of a Haar basis with the leading k coordinates from
    ``grassmann.haar_rows``, which draws O(k^2) numbers in place of a D x k
    Gaussian.  Mask pairs need no embedding: they share |m1 & m2| zero
    angles and the rest are right angles.  The overlap comes straight from
    the cross product or the shared count; the principal angles are formed
    once, and only when a metric other than overlap is asked for.
    """
    needs_angles = any(kind is not MetricKind.OVERLAP for kind in kinds)
    if k == dim:
        # every pair spans the whole space: overlap exactly 1, zero angles
        overlap, angles = 1.0, PrincipalAngles(np.zeros(k))
    elif modality == "MM":
        shared = np.intersect1d(mask_from_rng(rng, dim, k).indices,
                                mask_from_rng(rng, dim, k).indices,
                                assume_unique=True).size
        overlap = shared / k
        angles = (PrincipalAngles(np.repeat([0.0, np.pi / 2], [shared, k - shared]))
                  if needs_angles else None)
    else:
        cross = haar_rows(rng, dim, k)
        overlap = float(np.sum(cross * cross) / k)
        angles = cross_angles(cross) if needs_angles else None
    return [overlap if kind is MetricKind.OVERLAP
            else similarity(kind, metric(kind, angles), k) for kind in kinds]


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


def _sample_pairs(modality, kinds, rng, dim, k, samples):
    """``samples`` draws of ``_pair_sample``, one row of samples per metric.

    The calling thread runs them on one BLAS thread while k <=
    ``ONE_THREAD_MAX_K`` and numpy's OpenBLAS has a per-thread setting; its
    thread count is restored afterwards, also on an exception.
    """
    setter = _openblas_thread_setter() if k <= ONE_THREAD_MAX_K else None
    previous = setter(1) if setter is not None else None
    try:
        draws = [_pair_sample(modality, kinds, rng, dim, k) for _ in range(samples)]
    finally:
        if setter is not None:
            setter(previous)
    # contiguous rows, so each metric's statistics read a plain 1-d array
    return np.array(draws).T.copy()


def run_baseline(dim_grid, rho_grid, modalities, metrics, samples, seed):
    """Sample similarity distributions over the requested grid.

    Every (D, rho, modality) group draws ``samples`` independent pairs, and
    every requested metric reads its row off those same pairs, so the rows
    of one group are not independent of each other; groups are.  Child
    stream i of ``seed`` belongs to the i-th (D, rho, metric, modality) cell
    in row order, and a group draws from the stream of its first-metric
    cell: the first metric's rows are the ones that cell gives when it draws
    on its own.  Duplicate grid entries and out-of-range values are refused
    before any pair is drawn.  The result is reproducible bit for bit at a
    fixed BLAS thread count: groups with k > ``ONE_THREAD_MAX_K`` run at
    default threads (see ``_sample_pairs``), and their Gram products round
    differently on one thread and on two.  A pair with a Haar side costs
    O(k^2) random numbers and the Gram product of a stand-in of at most 2k
    rows (``_pair_sample``).
    """
    dim_grid = [int(d) for d in dim_grid]
    rho_grid = [float(r) for r in rho_grid]
    metrics = [MetricKind(m) for m in metrics]
    modalities = [str(m) for m in modalities]
    grids = {"dimension": dim_grid, "rho": rho_grid, "modality": modalities,
             "metric": [kind.value for kind in metrics]}
    for name, grid in grids.items():
        if not grid:
            raise ValueError("all grids must be nonempty")
        if len(set(grid)) < len(grid):
            raise ValueError(f"{name} grid {grid} repeats an entry")
    if min(dim_grid) < 1:
        raise ValueError(f"dimension must be positive, got {min(dim_grid)}")
    for m in modalities:
        if m not in MODALITIES:
            raise ValueError(f"unknown modality {m!r}; choose from {MODALITIES}")
    samples = int(samples)
    if samples < 2:
        raise ValueError("need at least 2 samples per cell")
    points = [(dim, rho, rho_to_k(dim, rho)) for dim in dim_grid for rho in rho_grid]

    block = len(metrics) * len(modalities)
    streams = np.random.SeedSequence(seed).spawn(len(points) * block)
    rows = []
    for index, (dim, rho, k) in enumerate(points):
        first = streams[index * block:index * block + len(modalities)]
        values = [_sample_pairs(modality, metrics, np.random.default_rng(stream),
                                dim, k, samples)
                  for modality, stream in zip(modalities, first)]
        for j, kind in enumerate(metrics):
            for modality, sampled in zip(modalities, values):
                column = sampled[j]
                p5, median, p95 = np.percentile(column, [5.0, 50.0, 95.0])
                rows.append(BaselineRow(
                    modality=modality, metric=kind.value, dim=dim, k=k, rho=rho,
                    samples=samples, median=float(median), p5=float(p5), p95=float(p95),
                    mean=float(np.mean(column)), std=float(np.std(column, ddof=1)),
                ))
    return BaselineResult(rows=rows, seed=int(seed))


class LemmaCheck(NamedTuple):
    mean: float
    stderr: float
    passed: bool
    z: float


def verify_lemma(dim, k, samples, seed):
    """Monte Carlo check that mean overlap of uniform subspace pairs is k/D.

    Each sample is the overlap of one Haar basis with the leading k
    coordinates, read from ``grassmann.haar_rows`` through ``_sample_pairs``.
    ``stderr`` is the closed-form standard error
    ``sqrt(overlap_variance(D, k) / samples)`` and ``z`` the mean's deviation
    from k/D in its units; the check passes at |z| <= 4.  At k = D the
    variance is zero and every sample must be exactly 1: ``z`` is 0 when the
    mean is exactly 1 and infinite otherwise.
    """
    expected = overlap_baseline(dim, k)
    samples = int(samples)
    if samples < 30:
        raise ValueError("need at least 30 samples for a meaningful standard error")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = _sample_pairs("OO", [MetricKind.OVERLAP], rng, dim, k, samples)[0]
    mean = float(np.mean(values))
    stderr = float(np.sqrt(overlap_variance(dim, k) / samples))
    if stderr > 0:
        z = (mean - expected) / stderr
    else:
        z = 0.0 if mean == expected else float(np.copysign(np.inf, mean - expected))
    return LemmaCheck(mean=mean, stderr=stderr, passed=abs(z) <= 4.0, z=z)


def ranked_theta(dim, priority, seed):
    """Random parameter vector whose magnitude ranking starts with ``priority``.

    Distinct magnitudes are drawn, sorted descending, and assigned to the
    priority indices first, so the top-k magnitude mask equals the first k
    priority indices for every k up to len(priority).
    """
    dim = int(dim)
    priority = np.asarray(priority, dtype=np.int64).ravel()
    if len(np.unique(priority)) != len(priority):
        raise ValueError("priority indices must be distinct")
    rng = np.random.default_rng(seed)
    magnitudes = np.sort(np.abs(rng.standard_normal(dim)))[::-1]
    signs = rng.choice([-1.0, 1.0], size=dim)
    rest = np.setdiff1d(np.arange(dim), priority, assume_unique=False)
    order = np.concatenate([priority, rest])
    theta = np.empty(dim)
    theta[order] = magnitudes * signs
    return theta


@dataclass(frozen=True)
class CurvePoint:
    k: int
    exact: float  # nan when the exact oracle was skipped
    sketched: float
    baseline: float


@dataclass
class OverlapCurve:
    """Exact and sketched mask/eigenspace overlap per k, with chance level.

    ``exact_source`` names the oracle behind the exact column: ``planted``
    (the operator's own eigenpairs), ``dense`` (a dense eigendecomposition)
    or ``skipped`` (above the dense-oracle cap; the column is all NaN).
    """

    points: list
    operator: str
    n_outer: int
    n_inner: int
    seed: int
    exact_source: str


def overlap_curve(op, theta, n_outer, n_inner, k_max, seed):
    """Exact and sketched mask/eigenspace overlap for k = 1 .. k_max.

    Per k the mask is the top-k magnitude mask of ``theta``; the exact value
    uses the leading k vectors of ``op.reference_eigenbasis(k_max)``, the
    sketched value the rank-k truncation of one sketched eigendecomposition.
    The exact column is skipped, logged at INFO, above
    ``DENSE_ORACLE_MAX_DIM``, whatever the operator: perfbench's
    overlap-sketched check expects it empty there, planted operators
    included.  A ``k_max`` past the operator's known ``unique_rank`` is
    refused before any operator application, and one past the sketch's
    numerical rank after the sketch: the top-k eigenspace is an arbitrary
    pick from the null space there.  A refused run never pays for the
    reference.  At a magnitude tie that straddles k the top-k eigenspace is
    not unique either, and either oracle's pick is one valid basis of it.

    One magnitude ranking of ``theta`` and the k_max ranked rows of each
    column's eigenvectors serve every k: the top-k mask is the first k ranked
    indices and the rank-k eigenbasis the first k columns.
    """
    dim = op.dim
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if theta.size != dim:
        raise ValueError(f"theta length {theta.size} != operator dimension {dim}")
    if not 1 <= k_max <= n_outer:
        raise ValueError(f"need 1 <= k_max <= n_outer, got k_max={k_max}")
    if op.unique_rank is not None and k_max > op.unique_rank:
        raise ValueError(
            f"k_max={k_max} exceeds the planted rank {op.unique_rank}; "
            "top-k eigenspaces past the rank are not unique"
        )
    top = magnitude_ranking(theta)[:k_max]

    decomposition = seigh(op, draw_measurements(dim, n_inner, n_outer, seed))
    if k_max > decomposition.rank:
        raise ValueError(
            f"k_max={k_max} exceeds the numerical rank {decomposition.rank} of the sketch; "
            "top-k eigenspaces past the rank are not unique"
        )
    sketched = nested_mask_overlaps(decomposition.vectors[top, :k_max])

    if dim <= DENSE_ORACLE_MAX_DIM:
        vectors, source = op.reference_eigenbasis(k_max)
        exact = nested_mask_overlaps(vectors[top])
    else:
        logger.info(
            "dimension %d exceeds the dense-oracle cap %d; "
            "exact overlap column will be empty", dim, DENSE_ORACLE_MAX_DIM,
        )
        exact, source = [float("nan")] * k_max, "skipped"

    points = [CurvePoint(k=k, exact=e, sketched=s, baseline=k / dim)
              for k, e, s in zip(range(1, k_max + 1), exact, sketched)]
    descriptor = f"{type(op).__name__}(dim={dim})"
    return OverlapCurve(points=points, operator=descriptor,
                        n_outer=int(n_outer), n_inner=int(n_inner), seed=int(seed),
                        exact_source=source)
