import logging

import numpy as np
import pytest

from grassket.errors import ContractViolation
from grassket.grassmann import OrthonormalBasis, overlap
from grassket.masks import SparseMask
from grassket.operators import (CountingOperator, DenseOperator,
                                DiagonalOperator, eigh_by_magnitude,
                                make_planted_operator)
from grassket.sketch import (ONE_THREAD_MAX_DIM, SketchedEigh, _openblas_thread_setter,
                             blas_threads_for, draw_measurements, load_sketched_eigh,
                             residual_estimate, residual_probe_norms,
                             save_sketched_eigh, seigh, ssvd, truncate)


def rank_deficient_matrix(rng, rows, cols, rank):
    left = rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols))
    return left @ right


# ---------------------------------------------------------------------------
# measurement ensembles


def test_measurements_deterministic():
    a = draw_measurements(8, 4, 2, seed=7)
    b = draw_measurements(8, 4, 2, seed=7)
    assert np.array_equal(a.upsilon, b.upsilon)
    assert np.array_equal(a.omega_inner, b.omega_inner)
    assert np.array_equal(a.omega_outer, b.omega_outer)
    assert np.array_equal(a.upsilon_outer, b.upsilon_outer)
    c = draw_measurements(8, 4, 2, seed=8)
    assert not np.array_equal(a.upsilon, c.upsilon)


def test_measurements_shapes_and_validation():
    ens = draw_measurements(16, 9, 4, seed=0)
    assert ens.upsilon.shape == (16, 9)
    assert ens.omega_inner.shape == (16, 5)
    assert ens.omega_outer.shape == (16, 4)
    assert ens.omega_full.shape == (16, 9)
    with pytest.raises(ValueError):
        draw_measurements(16, 4, 9, seed=0)  # n_outer > n_inner
    with pytest.raises(ValueError):
        draw_measurements(4, 9, 2, seed=0)  # n_inner > dim


def test_omega_full_holds_both_streams_as_views():
    ens = draw_measurements(16, 9, 4, seed=3)
    assert np.shares_memory(ens.omega_outer, ens.omega_full)
    assert np.shares_memory(ens.omega_inner, ens.omega_full)
    # stream 1 fills the leading inner columns, stream 2 the trailing outer ones
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(3).spawn(5)]
    assert np.array_equal(ens.upsilon, streams[0].standard_normal((16, 9)))
    assert np.array_equal(ens.omega_full[:, :5], streams[1].standard_normal((16, 5)))
    assert np.array_equal(ens.omega_full[:, 5:], streams[2].standard_normal((16, 4)))


def test_measurements_entrywise_mean():
    ens = draw_measurements(1030, 980, 300, seed=1)
    assert ens.upsilon.size >= 10**6
    assert abs(ens.upsilon.mean()) <= 0.01


def test_measurements_column_norms_concentrate():
    ens = draw_measurements(1024, 300, 100, seed=2)
    for block in (ens.upsilon, ens.omega_inner, ens.omega_outer):
        ratios = np.sum(block**2, axis=0) / 1024
        assert np.all((0.8 <= ratios) & (ratios <= 1.2))


# ---------------------------------------------------------------------------
# ssvd


def test_ssvd_rank_one():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(50)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(50)
    v /= np.linalg.norm(v)
    op = DenseOperator(2.0 * np.outer(u, v))
    dec = ssvd(op, draw_measurements(50, 7, 3, seed=1))
    assert dec.singvals[0] == pytest.approx(2.0, abs=1e-8)
    assert np.abs(dec.singvals[1:]).max() <= 1e-8
    left = dec.left_basis(1).columns[:, 0]
    assert abs(u @ left) >= 1 - 1e-8


def test_ssvd_zero_operator():
    op = DenseOperator(np.zeros((12, 12)))
    dec = ssvd(op, draw_measurements(12, 6, 3, seed=4))
    assert np.array_equal(dec.singvals, np.zeros(3))
    assert np.abs(dec.P.T @ dec.P - np.eye(3)).max() <= 1e-10


def test_ssvd_rectangular_exact_rank():
    rng = np.random.default_rng(5)
    matrix = rank_deficient_matrix(rng, 60, 40, rank=5)
    op = DenseOperator(matrix)
    dec = ssvd(op, draw_measurements(60, 21, 10, seed=6),
               right_ens=draw_measurements(40, 21, 10, seed=7))
    oracle = np.linalg.svd(matrix, compute_uv=False)
    assert np.abs(dec.singvals[:5] - oracle[:5]).max() <= 1e-8 * oracle[0]
    assert np.abs(dec.singvals[5:]).max() <= 1e-8 * oracle[0]


def test_ssvd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(8)
    matrix = rank_deficient_matrix(rng, 45, 45, rank=6)
    op = DenseOperator(matrix)
    dec = ssvd(op, draw_measurements(45, 17, 8, seed=9))
    for factor in (dec.P, dec.Q, dec.left_basis().columns, dec.right_basis().columns):
        k = factor.shape[1]
        assert np.abs(factor.T @ factor - np.eye(k)).max() <= 1e-10
    assert np.abs(dec.dense() - matrix).max() <= 1e-8 * np.abs(matrix).max()


def test_ssvd_dimension_mismatch():
    op = DenseOperator(np.zeros((10, 8)))
    with pytest.raises(ValueError):
        ssvd(op, draw_measurements(10, 5, 2, seed=0))  # right side needs dim 8


# ---------------------------------------------------------------------------
# seigh


def test_seigh_rank_deficient_diagonal():
    diag = np.concatenate([np.arange(10, 0, -1.0), np.zeros(90)])
    op = DiagonalOperator(diag)
    dec = seigh(op, draw_measurements(100, 31, 15, seed=3))
    assert np.abs(dec.eigvals[:10] - diag[:10]).max() <= 1e-8 * 10
    exact = np.zeros((100, 10))
    exact[:10, :10] = np.eye(10)
    recovered = dec.eigenbasis(10)
    assert overlap(recovered, OrthonormalBasis(exact, check=False)) >= 1 - 1e-8


def test_seigh_negative_rank_one():
    rng = np.random.default_rng(11)
    q = rng.standard_normal(30)
    q /= np.linalg.norm(q)
    op = DenseOperator(-3.0 * np.outer(q, q))
    dec = seigh(op, draw_measurements(30, 5, 2, seed=12))
    assert dec.eigvals[0] == pytest.approx(-3.0, abs=1e-8)
    assert abs(dec.eigvals[1]) <= 1e-8
    assert abs(q @ dec.eigenbasis(1).columns[:, 0]) >= 1 - 1e-8


def test_seigh_scalar_operator():
    op = DenseOperator(np.array([[3.0]]))
    dec = seigh(op, draw_measurements(1, 1, 1, seed=5))
    assert dec.eigvals == pytest.approx([3.0], abs=1e-12)


def test_seigh_requires_hermitian_flag():
    op = DenseOperator(np.triu(np.ones((6, 6))))
    assert not op.hermitian
    with pytest.raises(ContractViolation):
        seigh(op, draw_measurements(6, 4, 2, seed=0))


def test_seigh_orthonormal_factors_and_symmetric_core():
    mask = SparseMask(80, np.arange(8))
    op = make_planted_operator(80, np.arange(8, 0, -1.0), mask, 0.6, seed=1)
    dec = seigh(op, draw_measurements(80, 27, 13, seed=2))
    assert np.abs(dec.Q.T @ dec.Q - np.eye(13)).max() <= 1e-10
    assert np.abs(dec.U.T @ dec.U - np.eye(13)).max() <= 1e-10
    basis = dec.eigenbasis().columns
    assert np.abs(basis.T @ basis - np.eye(13)).max() <= 1e-10
    assert dec.core_asymmetry <= 1e-8


@pytest.mark.parametrize("seed", range(20))
def test_exact_rank_capture_over_seeds(seed):
    # any exact-rank operator with n_outer >= rank + 5 is captured exactly
    rng = np.random.default_rng(seed)
    eigvals = np.sort(np.abs(rng.standard_normal(6)))[::-1] + 0.5
    signs = rng.choice([-1.0, 1.0], size=6)
    mask = SparseMask(120, np.arange(6))
    op = make_planted_operator(120, eigvals * signs, mask, 0.5, seed=seed)
    dec = seigh(op, draw_measurements(120, 23, 11, seed=seed + 1000))
    oracle, _ = eigh_by_magnitude(op.materialize())
    top = oracle[:6]
    assert np.abs(dec.eigvals[:6] - top).max() <= 1e-6 * np.abs(top).max()
    assert np.abs(dec.eigvals[6:]).max() <= 1e-6 * np.abs(top).max()


def test_seigh_vs_ssvd_consistency():
    mask = SparseMask(70, np.arange(5))
    op = make_planted_operator(70, [9.0, -6.0, 4.0, -2.0, 1.0], mask, 0.4, seed=3)
    ens = draw_measurements(70, 21, 10, seed=4)
    eigh_dec = seigh(op, ens)
    svd_dec = ssvd(op, ens)
    assert np.abs(np.abs(eigh_dec.eigvals[:5]) - svd_dec.singvals[:5]).max() <= 1e-6 * 9.0


def test_measurement_budget():
    mask = SparseMask(64, np.arange(4))
    op = make_planted_operator(64, [4.0, 3.0, 2.0, 1.0], mask, 0.5, seed=0)
    n_inner, n_outer = 13, 6

    counter = CountingOperator(op)
    seigh(counter, draw_measurements(64, n_inner, n_outer, seed=1))
    assert counter.applied_columns == n_inner
    assert counter.adjoint_columns == 0
    assert counter.calls == 2  # one outer block, one inner block

    counter = CountingOperator(op)
    ssvd(counter, draw_measurements(64, n_inner, n_outer, seed=1))
    assert counter.applied_columns + counter.adjoint_columns == n_inner + 2 * n_outer


def test_seigh_reports_numerical_rank_without_warning(caplog):
    op = make_planted_operator(100, np.arange(5, 0, -1.0), None, 0.0, seed=0)
    with caplog.at_level(logging.WARNING):
        dec = seigh(op, draw_measurements(100, 21, 10, seed=2))
    assert dec.numerical_rank == 5
    assert np.array_equal(dec.eigvals[5:], np.zeros(5))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_seigh_numerical_rank_full_and_zero():
    full = seigh(DiagonalOperator(np.arange(20, 0, -1.0)), draw_measurements(20, 11, 5, seed=6))
    assert full.numerical_rank == 5
    zero = seigh(DenseOperator(np.zeros((12, 12)), hermitian=True),
                 draw_measurements(12, 6, 3, seed=4))
    assert zero.numerical_rank == 0
    assert np.array_equal(zero.eigvals, np.zeros(3))


def test_small_sketches_run_on_one_blas_thread():
    setter = _openblas_thread_setter()
    if setter is None:
        pytest.skip("numpy links no OpenBLAS with a per-thread setting")

    def threads():
        count = setter(1)
        setter(count)
        return count

    before = threads()
    with blas_threads_for(ONE_THREAD_MAX_DIM):
        assert threads() == 1
    assert threads() == before
    with blas_threads_for(ONE_THREAD_MAX_DIM + 1):
        assert threads() == before
    with pytest.raises(RuntimeError), blas_threads_for(10):
        raise RuntimeError
    assert threads() == before


def test_seigh_on_one_blas_thread_matches_default():
    op = make_planted_operator(300, np.arange(20, 0, -1.0), None, 0.0, seed=1)
    ens = draw_measurements(300, 41, 20, seed=3)
    with blas_threads_for(300):
        single = seigh(op, ens)
    default = seigh(op, ens)
    assert single.numerical_rank == default.numerical_rank == 20
    assert np.allclose(single.eigvals, default.eigvals, rtol=0, atol=1e-12 * 20)


# ---------------------------------------------------------------------------
# truncation


def test_truncate_full_rank_is_identity():
    op = DiagonalOperator(np.arange(20, 0, -1.0))
    dec = seigh(op, draw_measurements(20, 11, 5, seed=6))
    full = truncate(dec, 5)
    assert np.array_equal(full.eigvals, dec.eigvals)
    assert np.array_equal(full.U, dec.U)


def test_truncate_exact_rank_reconstruction():
    mask = SparseMask(90, np.arange(10))
    op = make_planted_operator(90, np.arange(10, 0, -1.0), mask, 0.5, seed=7)
    dec = truncate(seigh(op, draw_measurements(90, 31, 15, seed=8)), 10)
    dense = op.materialize()
    err = np.linalg.norm(dec.dense() - dense)
    assert err <= 1e-8 * np.linalg.norm(dense)


def test_truncate_to_single_eigenpair():
    # exact-rank setting, so the leading eigenpair is recovered sharply
    diag = np.concatenate([np.arange(10, 0, -1.0), np.zeros(90)])
    op = DiagonalOperator(diag)
    dec = truncate(seigh(op, draw_measurements(100, 31, 15, seed=9)), 1)
    assert dec.eigvals == pytest.approx([10.0], rel=1e-8)
    vec = dec.eigenbasis().columns[:, 0]
    assert abs(vec[0]) >= 1 - 1e-8


def test_truncate_caps_numerical_rank():
    op = make_planted_operator(100, np.arange(5, 0, -1.0), None, 0.0, seed=0)
    dec = seigh(op, draw_measurements(100, 21, 10, seed=2))
    assert truncate(dec, 8).numerical_rank == 5
    assert truncate(dec, 3).numerical_rank == 3


def test_truncate_range_check():
    op = DiagonalOperator(np.arange(8, 0, -1.0))
    dec = seigh(op, draw_measurements(8, 7, 3, seed=1))
    with pytest.raises(ValueError):
        truncate(dec, 0)
    with pytest.raises(ValueError):
        truncate(dec, 4)


# ---------------------------------------------------------------------------
# residual estimation


def test_residual_small_when_fully_captured():
    mask = SparseMask(60, np.arange(6))
    op = make_planted_operator(60, np.arange(6, 0, -1.0), mask, 0.5, seed=2)
    dec = seigh(op, draw_measurements(60, 23, 11, seed=3))
    frob = np.linalg.norm(op.materialize())
    assert residual_estimate(op, dec, n_probe=10, seed=4) <= 1e-6 * frob


def test_residual_of_zero_reconstruction_matches_frobenius_norm():
    op = DiagonalOperator(np.ones(2))
    zero_dec = SketchedEigh(Q=np.eye(2), U=np.eye(2), eigvals=np.zeros(2))
    norms = residual_probe_norms(op, zero_dec, n_probe=4000, seed=5)
    mean = norms.mean()
    stderr = norms.std(ddof=1) / np.sqrt(len(norms))
    assert abs(mean - 2.0) <= 3 * stderr  # ||A||_F^2 = 2


def test_residual_invariant_under_basis_rotation():
    op = DiagonalOperator(np.arange(6, 0, -1.0))
    dec = seigh(op, draw_measurements(6, 5, 2, seed=6))
    rng = np.random.default_rng(7)
    Z, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    rotated = SketchedEigh(Q=dec.Q @ Z, U=Z.T @ dec.U, eigvals=dec.eigvals)
    a = residual_estimate(op, dec, n_probe=8, seed=8)
    b = residual_estimate(op, rotated, n_probe=8, seed=8)
    assert a == pytest.approx(b, rel=1e-10)


def test_residual_monotone_in_outer_count():
    diag = np.arange(1, 301, dtype=np.float64) ** -1.0
    op = DiagonalOperator(diag)
    k = 10
    previous = None
    for n_outer in (k + 5, 2 * k, 4 * k):
        dec = seigh(op, draw_measurements(300, 2 * n_outer + 1, n_outer, seed=10))
        norms = residual_probe_norms(op, dec, n_probe=40, seed=11)
        mean = norms.mean()
        stderr = norms.std(ddof=1) / np.sqrt(len(norms))
        estimate = np.sqrt(mean)
        # delta method on the square root
        est_stderr = stderr / (2 * max(estimate, 1e-30))
        if previous is not None:
            prev_est, prev_se = previous
            assert estimate <= prev_est + 2 * np.hypot(est_stderr, prev_se)
        previous = (estimate, est_stderr)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path):
    op = DiagonalOperator(np.arange(12, 0, -1.0))
    dec = seigh(op, draw_measurements(12, 9, 4, seed=0))
    save_sketched_eigh(dec, tmp_path / "dec", metadata={"n_inner": 9, "n_outer": 4,
                                                        "seed": 0})
    loaded = load_sketched_eigh(tmp_path / "dec")
    assert np.array_equal(loaded.Q, dec.Q)
    assert np.array_equal(loaded.U, dec.U)
    assert np.array_equal(loaded.eigvals, dec.eigvals)
    from grassket.storage import open_store
    meta = open_store(tmp_path / "dec/q.store").metadata
    assert (meta["n_inner"], meta["n_outer"], meta["seed"]) == (9, 4, 0)
    assert meta["eigvals"] == [float(v) for v in dec.eigvals]


def test_save_load_keeps_numerical_rank(tmp_path):
    op = make_planted_operator(40, [4.0, 3.0, 2.0], None, 0.0, seed=1)
    dec = seigh(op, draw_measurements(40, 13, 6, seed=2))
    assert dec.numerical_rank == 3
    save_sketched_eigh(dec, tmp_path / "dec")
    assert load_sketched_eigh(tmp_path / "dec").numerical_rank == 3
