"""The mask-eigenspace overlap against a masked-perturbation estimate of it.

For a rank-k eigenbasis V and a k-mask M, k times the overlap is the subtrace
of the projector V V^T over M.  A Rademacher perturbation eps supported on M
has E[|V^T eps|^2] equal to that subtrace, since the cross terms cancel in
expectation.  The Monte Carlo mean of |V^T eps|^2 / k is therefore an
estimate of ``mask_eigenspace_overlap`` made without its row-norm formula.
"""

import numpy as np
import pytest

from grassket.grassmann import sample_stiefel
from grassket.masks import mask_eigenspace_overlap, sample_mask


def masked_perturbation_estimate(basis, mask, n_samples, seed):
    """Mean and standard error of |V^T eps|^2 / k over sign vectors on the mask."""
    rng = np.random.default_rng(seed)
    eps = rng.choice([-1.0, 1.0], size=(n_samples, mask.k))
    rows = basis.columns[mask.indices]
    values = np.sum((eps @ rows) ** 2, axis=1) / basis.rank
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n_samples))


@pytest.mark.parametrize("trial", range(20))
def test_masked_perturbation_converges_to_subtrace(trial):
    rng = np.random.default_rng(trial)
    dim = int(rng.integers(2, 17))
    k = int(rng.integers(1, dim + 1))
    basis = sample_stiefel(dim, k, seed=trial + 300)
    mask = sample_mask(dim, k, seed=trial + 100)
    estimate, stderr = masked_perturbation_estimate(
        basis, mask, n_samples=100_000, seed=trial + 200)
    exact = mask_eigenspace_overlap(mask, basis, k)
    assert abs(estimate - exact) <= 4 * max(stderr, 1e-12)
