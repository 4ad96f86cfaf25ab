"""Curvature proxies based on perturbations, PSD subtraces, and loss deltas.

These are the cheap alternatives to the full subspace machinery: Monte Carlo
expectations of masked random perturbations (whose signed curvature terms can
cancel), normalized subtraces of a PSD diagonal over the largest parameters,
squared-operator diagonals obtained from one block application each, and
gradient-direction loss deltas per coordinate.  All are exercised here on
analytic objectives whose Taylor expansion terminates, so every estimate has
a closed-form target.
"""

import numpy as np

from .masks import magnitude_ranking

__all__ = [
    "QuadraticObjective",
    "masked_perturbation_expectation",
    "psd_subtrace",
    "subtrace_curve",
    "squared_hessian_diag",
    "sam_direction",
    "sam_deltas",
    "sam_feature",
]


class QuadraticObjective:
    """L(theta) = c0 + g0^T theta + 0.5 theta^T H0 theta.

    The gradient is g0 + H0 theta and the Hessian is the constant H0, so the
    third-order Taylor remainder vanishes identically and every perturbation
    statistic has an exact closed form.
    """

    def __init__(self, H0, g0=None, c0=0.0):
        from .operators import DenseOperator

        H0 = np.asarray(H0, dtype=np.float64)
        if H0.ndim != 2 or H0.shape[0] != H0.shape[1]:
            raise ValueError("H0 must be square")
        if not np.allclose(H0, H0.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(H0).max())):
            raise ValueError("H0 must be symmetric")
        dim = H0.shape[0]
        g0 = np.zeros(dim) if g0 is None else np.asarray(g0, dtype=np.float64).ravel()
        if g0.size != dim:
            raise ValueError("g0 length must match H0")
        self.dim = dim
        self.hessian_op = DenseOperator(H0, hermitian=True)
        self.H0 = H0
        self.g0 = g0
        self.c0 = float(c0)

    def value(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        return float(self.c0 + self.g0 @ theta + 0.5 * theta @ (self.H0 @ theta))

    def gradient(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        return self.g0 + self.H0 @ theta

    def value_batch(self, thetas):
        thetas = np.asarray(thetas, dtype=np.float64)
        quad = np.einsum("nd,nd->n", thetas, thetas @ self.H0)
        return self.c0 + thetas @ self.g0 + 0.5 * quad

    def masked_subtrace(self, mask):
        """Exact target of the masked perturbation expectation: 0.5 * Tr_m(H0)."""
        return 0.5 * float(np.sum(np.diag(self.H0)[mask.indices]))


def masked_perturbation_expectation(obj, theta, mask, n_samples, seed):
    """Monte Carlo estimate of E[L(theta + delta_m)] - L(theta).

    ``delta_m`` is a standard normal perturbation restricted to the masked
    coordinates.  Returns (estimate, standard error).  For objectives with
    vanishing third-order remainder the expectation equals half the masked
    Hessian trace, so positive and negative curvature directions inside the
    mask can cancel to zero; that cancellation is exactly why this probe is
    unreliable as a sensitivity measure.
    """
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("need n_samples >= 2 for a standard error")
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if theta.size != mask.dim:
        raise ValueError(f"theta length {theta.size} != mask dimension {mask.dim}")
    rng = np.random.default_rng(seed)
    base = obj.value(theta)
    samples = np.empty(n_samples)
    # batched evaluation; batch size keeps the theta matrix modest
    batch = max(1, min(n_samples, 1 << 22) // max(1, theta.size))
    done = 0
    while done < n_samples:
        n = min(batch, n_samples - done)
        thetas = np.broadcast_to(theta, (n, theta.size)).copy()
        thetas[:, mask.indices] += rng.standard_normal((n, mask.k))
        samples[done:done + n] = obj.value_batch(thetas) - base
        done += n
    estimate = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / np.sqrt(n_samples))
    return estimate, stderr


def _ranked_cumulative(values, theta):
    """Cumulative sums of ``values`` along the descending-|theta| ranking.

    Numerator and denominator share one summation order, so the full-range
    ratio is exactly 1.0.
    """
    ranked = values[magnitude_ranking(theta)]
    return np.cumsum(ranked)


def psd_subtrace(diag, theta, k):
    """Normalized subtrace of a PSD diagonal over the k largest parameters.

    The k-th entry of :func:`subtrace_curve`: nondecreasing in k and exactly
    1 at k = dim.
    """
    dim = np.asarray(diag).size
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= k <= {dim}, got k={k}")
    return float(subtrace_curve(diag, theta)[1][k - 1])


def subtrace_curve(diag, theta):
    """(k, subtrace, uniform baseline k/D) for every k, as three arrays.

    Tiny negative diagonal entries (>= -1e-10, rounding noise from a PSD
    operator) are clamped to zero; anything more negative is rejected.
    """
    diag = np.asarray(diag, dtype=np.float64).ravel()
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if diag.size != theta.size:
        raise ValueError("diagonal and parameter vector lengths differ")
    if np.any(diag < -1e-10):
        raise ValueError("diagonal has entries below -1e-10; operator is not PSD")
    cumulative = _ranked_cumulative(np.maximum(diag, 0.0), theta)
    total = cumulative[-1]
    if total <= 0.0:
        raise ValueError("diagonal trace must be positive")
    ks = np.arange(1, diag.size + 1)
    return ks, cumulative / total, ks / diag.size


def squared_hessian_diag(H, i):
    """Diagonal entry of H^2 from one block application: ||H e_i||^2."""
    if not H.hermitian:
        raise ValueError("squared diagonal readout requires a hermitian operator")
    i = int(i)
    if not 0 <= i < H.cols:
        raise ValueError(f"index {i} out of range for dimension {H.cols}")
    e = np.zeros((H.cols, 1))
    e[i, 0] = 1.0
    col = H.apply(e)
    return float(np.sum(col * col))


def sam_direction(obj, theta):
    """Normalized gradient, the first-order loss-maximizing direction."""
    g = np.asarray(obj.gradient(theta), dtype=np.float64).ravel()
    norm = np.linalg.norm(g)
    if norm == 0.0:
        raise ValueError("gradient is zero; the perturbation direction is undefined")
    return g / norm


def sam_deltas(obj, theta, radius):
    """Per-coordinate loss deltas |L(theta) - L(theta + radius * e_i o eps)|.

    ``eps`` is the normalized gradient; one value evaluation per coordinate.
    """
    if radius <= 0.0:
        raise ValueError("perturbation radius must be positive")
    theta = np.asarray(theta, dtype=np.float64).ravel()
    direction = sam_direction(obj, theta)
    base = obj.value(theta)
    deltas = np.empty(theta.size)
    perturbed = theta.copy()
    for i in range(theta.size):
        perturbed[i] = theta[i] + radius * direction[i]
        deltas[i] = abs(base - obj.value(perturbed))
        perturbed[i] = theta[i]
    return deltas


def sam_feature(obj, theta, radius, k):
    """Normalized sum of gradient-direction loss deltas over the top-k parameters."""
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if not 1 <= k <= theta.size:
        raise ValueError(f"need 1 <= k <= {theta.size}, got k={k}")
    cumulative = _ranked_cumulative(sam_deltas(obj, theta, radius), theta)
    total = cumulative[-1]
    if total <= 0.0:
        raise ValueError("all loss deltas vanish; feature undefined")
    return float(cumulative[k - 1] / total)
