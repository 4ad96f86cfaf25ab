import numpy as np
import pytest

from grassket.masks import SparseMask, sample_mask
from grassket.operators import DenseOperator, DiagonalOperator
from grassket.proxies import (QuadraticObjective,
                              masked_perturbation_expectation, psd_subtrace,
                              sam_deltas, sam_feature, squared_hessian_diag,
                              subtrace_curve)


def closed_form_deltas(obj, theta, radius):
    """Independent evaluation of the per-coordinate loss deltas for quadratics.

    For L quadratic the delta at coordinate i is
    |radius * eps_i * g_i + 0.5 * radius^2 * eps_i^2 * H_ii|.
    """
    g = obj.gradient(theta)
    eps = g / np.linalg.norm(g)
    H_diag = np.diag(obj.H0)
    return np.abs(radius * eps * g + 0.5 * radius**2 * eps**2 * H_diag)


def test_masked_perturbation_cancellation():
    obj = QuadraticObjective(np.diag([2.0, -2.0, 4.0]))
    theta = np.zeros(3)
    estimate, stderr = masked_perturbation_expectation(
        obj, theta, SparseMask(3, [0, 1]), n_samples=40_000, seed=0)
    # opposite curvatures cancel: the expectation is exactly zero
    assert obj.masked_subtrace(SparseMask(3, [0, 1])) == 0.0
    assert abs(estimate) <= 3 * stderr


def test_masked_perturbation_single_coordinate():
    obj = QuadraticObjective(np.diag([2.0, -2.0, 4.0]))
    estimate, stderr = masked_perturbation_expectation(
        obj, np.zeros(3), SparseMask(3, [2]), n_samples=40_000, seed=1)
    assert obj.masked_subtrace(SparseMask(3, [2])) == 2.0
    assert abs(estimate - 2.0) <= 3 * stderr


def test_masked_perturbation_flat_objective():
    obj = QuadraticObjective(np.zeros((4, 4)))
    estimate, stderr = masked_perturbation_expectation(
        obj, np.zeros(4), SparseMask(4, [0, 3]), n_samples=1000, seed=2)
    assert estimate == 0.0
    assert stderr == 0.0


@pytest.mark.parametrize("trial", range(20))
def test_masked_perturbation_converges_to_subtrace(trial):
    rng = np.random.default_rng(trial)
    dim = int(rng.integers(2, 17))
    half = rng.standard_normal((dim, dim))
    H0 = 0.5 * (half + half.T)
    obj = QuadraticObjective(H0, g0=rng.standard_normal(dim))
    theta = rng.standard_normal(dim)
    mask = sample_mask(dim, int(rng.integers(1, dim + 1)), seed=trial + 100)
    estimate, stderr = masked_perturbation_expectation(
        obj, theta, mask, n_samples=100_000, seed=trial + 200)
    assert abs(estimate - obj.masked_subtrace(mask)) <= 4 * max(stderr, 1e-12)


def test_psd_subtrace_identity_diagonal():
    theta = np.random.default_rng(0).standard_normal(10)
    for k in range(1, 11):
        assert psd_subtrace(np.ones(10), theta, k) == k / 10


def test_psd_subtrace_aligned_diagonal():
    diag = np.array([4.0, 3.0, 2.0, 1.0])
    theta = np.array([9.0, -7.0, 2.0, 0.5])  # same magnitude order as diag
    assert psd_subtrace(diag, theta, 2) == 0.7
    assert psd_subtrace(diag, theta, 4) == 1.0


def test_psd_subtrace_monotone_and_exact_at_full_k():
    rng = np.random.default_rng(3)
    diag = np.abs(rng.standard_normal(20))
    theta = rng.standard_normal(20)
    values = [psd_subtrace(diag, theta, k) for k in range(1, 21)]
    assert all(values[i] <= values[i + 1] + 1e-15 for i in range(19))
    assert values[-1] == 1.0


def test_psd_subtrace_validation():
    theta = np.ones(3)
    with pytest.raises(ValueError):
        psd_subtrace(np.array([1.0, -1e-3, 1.0]), theta, 1)
    # rounding-level negatives are clamped
    assert psd_subtrace(np.array([1.0, -1e-12, 1.0]), theta, 3) == 1.0
    with pytest.raises(ValueError):
        psd_subtrace(np.zeros(3), theta, 1)


def test_subtrace_curve_baseline():
    ks, xi, baseline = subtrace_curve(np.ones(8), np.arange(8.0))
    assert np.array_equal(baseline, ks / 8)
    assert np.array_equal(xi, ks / 8)


def test_subtrace_curve_rejects_length_mismatch():
    with pytest.raises(ValueError, match="lengths differ"):
        subtrace_curve(np.ones(5), np.arange(1.0, 4.0))


def test_squared_hessian_diag():
    op = DiagonalOperator([2.0, -2.0, 4.0])
    assert squared_hessian_diag(op, 1) == 4.0
    zero = DenseOperator(np.zeros((5, 5)), hermitian=True)
    assert squared_hessian_diag(zero, 2) == 0.0


def test_squared_hessian_diag_matches_dense_square():
    rng = np.random.default_rng(4)
    half = rng.standard_normal((20, 20))
    H = 0.5 * (half + half.T)
    op = DenseOperator(H, hermitian=True)
    squared = H @ H
    for i in range(20):
        value = squared_hessian_diag(op, i)
        assert value >= 0.0
        assert abs(value - squared[i, i]) <= 1e-10 * max(1.0, abs(squared[i, i]))


def test_sam_feature_full_k_is_one():
    rng = np.random.default_rng(5)
    half = rng.standard_normal((6, 6))
    obj = QuadraticObjective(0.5 * (half + half.T), g0=rng.standard_normal(6))
    theta = rng.standard_normal(6)
    assert sam_feature(obj, theta, 0.1, 6) == 1.0


def test_sam_feature_axis_gradient():
    # gradient along e_0: the delta at the other coordinate vanishes
    obj = QuadraticObjective(np.eye(2), g0=np.array([1.0, 0.0]))
    theta = np.zeros(2)
    deltas = sam_deltas(obj, theta, 0.5)
    assert deltas[1] == 0.0
    assert sam_feature(obj, theta, 0.5, 1) == 1.0


@pytest.mark.parametrize("radius", [0.01, 0.1, 1.0])
def test_sam_feature_matches_closed_form(radius):
    rng = np.random.default_rng(6)
    half = rng.standard_normal((8, 8))
    obj = QuadraticObjective(0.5 * (half + half.T), g0=rng.standard_normal(8))
    theta = rng.standard_normal(8)
    expected = closed_form_deltas(obj, theta, radius)
    assert np.abs(sam_deltas(obj, theta, radius) - expected).max() <= 1e-10
    from grassket.masks import magnitude_ranking
    ranked = expected[magnitude_ranking(theta)]
    for k in (1, 3, 8):
        target = ranked[:k].sum() / ranked.sum()
        assert sam_feature(obj, theta, radius, k) == pytest.approx(target, abs=1e-10)


def test_sam_feature_zero_gradient_rejected():
    obj = QuadraticObjective(np.eye(3))
    with pytest.raises(ValueError):
        sam_feature(obj, np.zeros(3), 0.1, 1)


@pytest.mark.parametrize("seed", range(10))
def test_gradient_check_on_shipped_objectives(seed):
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((7, 7))
    obj = QuadraticObjective(0.5 * (half + half.T), g0=rng.standard_normal(7),
                             c0=float(rng.standard_normal()))
    theta = rng.standard_normal(7)
    grad = obj.gradient(theta)
    step = 1e-5
    approx = np.empty(7)
    for i in range(7):
        e = np.zeros(7)
        e[i] = step
        approx[i] = (obj.value(theta + e) - obj.value(theta - e)) / (2.0 * step)
    assert np.linalg.norm(grad - approx) <= 1e-5 * max(1.0, np.linalg.norm(grad))


def test_hessian_op_matches_gradient_differences():
    rng = np.random.default_rng(9)
    half = rng.standard_normal((5, 5))
    obj = QuadraticObjective(0.5 * (half + half.T))
    theta = rng.standard_normal(5)
    step = 1e-6
    for i in range(5):
        e = np.zeros(5)
        e[i] = step
        column = (obj.gradient(theta + e) - obj.gradient(theta - e)) / (2 * step)
        exact = obj.hessian_op.apply(e[:, None] / step)[:, 0]
        assert np.abs(column - exact).max() <= 1e-4 * max(1.0, np.abs(exact).max())
