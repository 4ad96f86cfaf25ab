import json
import logging
import tracemalloc

import numpy as np
import pytest

from grassket.errors import IntegrityError
from grassket.grassmann import OrthonormalBasis, overlap
from grassket.masks import SparseMask
from grassket.operators import (CountingOperator, DenseOperator, eigh_by_magnitude,
                                make_planted_operator)
from grassket.sketch import (DEGENERATE_COL_RTOL, SketchedEigh, draw_measurements,
                             load_sketched_eigh, residual_probe_norms,
                             save_sketched_eigh, seigh)


# ---------------------------------------------------------------------------
# measurement ensembles


def test_measurements_deterministic():
    a = draw_measurements(8, 4, 2, seed=7)
    b = draw_measurements(8, 4, 2, seed=7)
    assert np.array_equal(a.upsilon, b.upsilon)
    assert np.array_equal(a.omega_inner, b.omega_inner)
    assert np.array_equal(a.omega_outer, b.omega_outer)
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


def _reference_signs(rng, shape):
    # one bit of rng.bytes per entry in row-major order, most significant
    # bit of each byte first; a set bit is -1
    size = int(np.prod(shape))
    raw = np.frombuffer(rng.bytes((size + 7) // 8), dtype=np.uint8)
    bits = (raw[:, None] >> np.arange(7, -1, -1)) & 1
    return 1.0 - 2.0 * bits.ravel()[:size].reshape(shape)


def test_omega_full_holds_both_streams_as_views():
    ens = draw_measurements(16, 9, 4, seed=3)
    assert np.shares_memory(ens.omega_outer, ens.omega_full)
    assert np.shares_memory(ens.omega_inner, ens.omega_full)
    # stream 1 fills the leading inner columns, stream 2 the trailing outer ones
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(3).spawn(5)]
    assert np.array_equal(ens.upsilon, _reference_signs(streams[0], (16, 9)))
    assert np.array_equal(ens.omega_full[:, :5], _reference_signs(streams[1], (16, 5)))
    assert np.array_equal(ens.omega_full[:, 5:], _reference_signs(streams[2], (16, 4)))


@pytest.mark.parametrize("dim,n_inner,n_outer,seed", [
    (16, 9, 4, 3), (16, 5, 5, 4), (9, 9, 2, 5), (3000, 201, 100, 6)])
def test_draw_matches_reference_streams(dim, n_inner, n_outer, seed):
    ens = draw_measurements(dim, n_inner, n_outer, seed=seed)
    assert ens.omega_outer.base is ens.omega_full
    assert ens.omega_inner.base is ens.omega_full
    # every entry is a sign; stream 0 fills upsilon, stream 1 the leading
    # inner columns, stream 2 the trailing outer ones
    split = n_inner - n_outer
    for block in (ens.upsilon, ens.omega_full):
        assert np.all(np.abs(block) == 1.0)
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(3)]
    assert np.array_equal(ens.upsilon, _reference_signs(streams[0], (dim, n_inner)))
    assert np.array_equal(ens.omega_inner, _reference_signs(streams[1], (dim, split)))
    assert np.array_equal(ens.omega_outer, _reference_signs(streams[2], (dim, n_outer)))


def test_measurement_signs_are_fair():
    ens = draw_measurements(1030, 980, 300, seed=1)
    for block in (ens.upsilon, ens.omega_full):
        n = block.size
        assert n >= 10**6
        negative = np.count_nonzero(block == -1.0) / n
        assert abs(negative - 0.5) <= 5 * np.sqrt(0.25 / n)


def test_measurement_draw_allocates_no_block_size_temporary():
    dim, n_inner, n_outer = 3000, 201, 100
    draw_measurements(16, 9, 4, seed=0)  # imports numpy.random before tracing
    tracemalloc.start()
    try:
        ens = draw_measurements(dim, n_inner, n_outer, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = ens.upsilon.nbytes + ens.omega_full.nbytes
    assert peak - result < dim * n_inner * 8 / 4


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
# seigh


def test_seigh_rank_deficient_diagonal():
    diag = np.concatenate([np.arange(10, 0, -1.0), np.zeros(90)])
    op = DenseOperator(np.diag(diag))
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


def test_seigh_dimension_mismatch():
    op = DenseOperator(np.diag(np.ones(8)))
    with pytest.raises(ValueError, match="does not match"):
        seigh(op, draw_measurements(10, 5, 2, seed=0))


def test_seigh_orthonormal_factors_and_symmetric_core():
    mask = SparseMask(80, np.arange(8))
    op = make_planted_operator(80, np.arange(8, 0, -1.0), mask, 0.6, seed=1)
    dec = seigh(op, draw_measurements(80, 27, 13, seed=2))
    assert np.abs(dec.vectors.T @ dec.vectors - np.eye(13)).max() <= 1e-10
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


def test_measurement_budget():
    mask = SparseMask(64, np.arange(4))
    op = make_planted_operator(64, [4.0, 3.0, 2.0, 1.0], mask, 0.5, seed=0)
    n_inner, n_outer = 13, 6

    counter = CountingOperator(op)
    seigh(counter, draw_measurements(64, n_inner, n_outer, seed=1))
    assert counter.applied_columns == n_inner
    assert counter.calls == 2  # one outer block, one inner block


def test_seigh_reports_numerical_rank_without_warning(caplog):
    op = make_planted_operator(100, np.arange(5, 0, -1.0), None, 0.0, seed=0)
    with caplog.at_level(logging.WARNING):
        dec = seigh(op, draw_measurements(100, 21, 10, seed=2))
    assert dec.numerical_rank == 5
    assert np.array_equal(dec.eigvals[5:], np.zeros(5))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_seigh_numerical_rank_full_and_zero():
    full = seigh(DenseOperator(np.diag(np.arange(20, 0, -1.0))),
                 draw_measurements(20, 11, 5, seed=6))
    assert full.numerical_rank == 5
    zero = seigh(DenseOperator(np.zeros((12, 12))),
                 draw_measurements(12, 6, 3, seed=4))
    assert zero.numerical_rank == 0
    assert np.array_equal(zero.eigvals, np.zeros(3))
    assert np.abs(zero.vectors.T @ zero.vectors - np.eye(3)).max() <= 1e-10


@pytest.mark.parametrize("make,n_outer,falls_back", [
    (lambda: make_planted_operator(200, 0.8 ** np.arange(60), None, 0.0, seed=1), 30, False),
    (lambda: make_planted_operator(300, np.arange(40, 0, -1.0), None, 0.0, seed=2), 40, False),
    (lambda: make_planted_operator(200, 0.9 ** np.arange(5), None, 0.0, seed=3), 12, True),
    (lambda: make_planted_operator(150, np.arange(20, 0, -1.0), None, 0.0, seed=4), 25, True),
    (lambda: DenseOperator(np.zeros((40, 40))), 8, True),
    # an exact-rank sketch with condition number near 1e11: full numerical rank
    (lambda: DenseOperator(np.diag(np.concatenate([np.logspace(0, -11, 30), np.zeros(90)]))),
     30, True),
], ids=["decaying", "flat", "rank-5", "rank-20", "zero", "cond-1e11"])
def test_gram_range_basis_keeps_the_householder_rank(monkeypatch, make, n_outer, falls_back):
    # the fallback is the only Householder QR seigh runs
    op = make()
    ens = draw_measurements(op.dim, 2 * n_outer + 1, n_outer, seed=n_outer)
    sketch = op.apply(ens.omega_outer)
    singvals = np.linalg.svd(np.linalg.qr(sketch, mode="r"), compute_uv=False)
    expected = int(np.count_nonzero(singvals > DEGENERATE_COL_RTOL * np.linalg.norm(sketch)))
    calls = []
    householder = np.linalg.qr

    def spy(m, *args, **kwargs):
        calls.append(m.shape)
        return householder(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    dec = seigh(op, ens)
    assert dec.numerical_rank == expected
    assert calls == ([(op.dim, n_outer)] if falls_back else [])
    assert np.abs(dec.vectors.T @ dec.vectors - np.eye(n_outer)).max() <= 1e-13


# ---------------------------------------------------------------------------
# truncation


def test_truncate_exact_rank_reconstruction():
    # the eigenvalues past numerical rank 10 are exact zeros
    mask = SparseMask(90, np.arange(10))
    op = make_planted_operator(90, np.arange(10, 0, -1.0), mask, 0.5, seed=7)
    dec = seigh(op, draw_measurements(90, 31, 15, seed=8))
    dense = op.materialize()
    err = np.linalg.norm(dec.reconstruct(np.eye(90)) - dense)
    assert err <= 1e-8 * np.linalg.norm(dense)


def test_truncate_to_single_eigenpair():
    # exact-rank setting, so the leading eigenpair is recovered sharply
    diag = np.concatenate([np.arange(10, 0, -1.0), np.zeros(90)])
    op = DenseOperator(np.diag(diag))
    dec = seigh(op, draw_measurements(100, 31, 15, seed=9))
    assert dec.eigvals[0] == pytest.approx(10.0, rel=1e-8)
    vec = dec.eigenbasis(1).columns[:, 0]
    assert abs(vec[0]) >= 1 - 1e-8


def test_truncate_range_check():
    op = DenseOperator(np.diag(np.arange(8, 0, -1.0)))
    dec = seigh(op, draw_measurements(8, 7, 3, seed=1))
    with pytest.raises(ValueError):
        dec.eigenbasis(0)
    with pytest.raises(ValueError):
        dec.eigenbasis(4)


# ---------------------------------------------------------------------------
# residual estimation


def test_residual_small_when_fully_captured():
    mask = SparseMask(60, np.arange(6))
    op = make_planted_operator(60, np.arange(6, 0, -1.0), mask, 0.5, seed=2)
    dec = seigh(op, draw_measurements(60, 23, 11, seed=3))
    frob = np.linalg.norm(op.materialize())
    assert np.sqrt(residual_probe_norms(op, dec, n_probe=10, seed=4).mean()) <= 1e-6 * frob


def test_residual_of_zero_reconstruction_matches_frobenius_norm():
    op = DenseOperator(np.diag(np.ones(2)))
    zero_dec = SketchedEigh(vectors=np.eye(2), eigvals=np.zeros(2))
    norms = residual_probe_norms(op, zero_dec, n_probe=4000, seed=5)
    mean = norms.mean()
    stderr = norms.std(ddof=1) / np.sqrt(len(norms))
    assert abs(mean - 2.0) <= 3 * stderr  # ||A||_F^2 = 2


def test_residual_monotone_in_outer_count():
    diag = np.arange(1, 301, dtype=np.float64) ** -1.0
    op = DenseOperator(np.diag(diag))
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
    op = DenseOperator(np.diag(np.arange(12, 0, -1.0)))
    dec = seigh(op, draw_measurements(12, 9, 4, seed=0))
    save_sketched_eigh(dec, tmp_path / "dec", metadata={"n_inner": 9, "n_outer": 4,
                                                        "seed": 0})
    loaded = load_sketched_eigh(tmp_path / "dec")
    assert np.array_equal(loaded.vectors, dec.vectors)
    assert np.array_equal(loaded.eigvals, dec.eigvals)
    from grassket.storage import open_store
    meta = open_store(tmp_path / "dec/vectors.store").metadata
    assert (meta["n_inner"], meta["n_outer"], meta["seed"]) == (9, 4, 0)
    assert meta["eigvals"] == [float(v) for v in dec.eigvals]


def test_save_load_keeps_numerical_rank(tmp_path):
    op = make_planted_operator(40, [4.0, 3.0, 2.0], None, 0.0, seed=1)
    dec = seigh(op, draw_measurements(40, 13, 6, seed=2))
    assert dec.numerical_rank == 3
    save_sketched_eigh(dec, tmp_path / "dec")
    assert load_sketched_eigh(tmp_path / "dec").numerical_rank == 3


@pytest.mark.parametrize("edit", [
    lambda meta: meta["eigvals"].pop(),
    lambda meta: meta.update(eigvals=meta["eigvals"] + [0.0]),
], ids=["one_short", "one_extra"])
def test_load_refuses_eigval_count_off_the_columns(tmp_path, edit):
    dec = seigh(DenseOperator(np.diag(np.arange(12, 0, -1.0))),
                draw_measurements(12, 9, 4, seed=0))
    save_sketched_eigh(dec, tmp_path / "dec")
    _edit_metadata(tmp_path / "dec/vectors.store", edit)
    with pytest.raises(IntegrityError, match="do not fit 4 stored eigenvectors"):
        load_sketched_eigh(tmp_path / "dec")


@pytest.mark.parametrize("rank", [-1, 5, 2.0, True, "3", None])
def test_load_refuses_numerical_rank_outside_the_columns(tmp_path, rank):
    dec = seigh(DenseOperator(np.diag(np.arange(12, 0, -1.0))),
                draw_measurements(12, 9, 4, seed=0))
    save_sketched_eigh(dec, tmp_path / "dec")
    _edit_metadata(tmp_path / "dec/vectors.store",
                   lambda meta: meta.update(numerical_rank=rank))
    with pytest.raises(IntegrityError, match="do not fit 4 stored eigenvectors"):
        load_sketched_eigh(tmp_path / "dec")


@pytest.mark.parametrize("edit", [
    lambda meta: meta["eigvals"].__setitem__(0, "x"),
    lambda meta: meta.update(eigvals="abc"),
    lambda meta: meta.update(core_asymmetry="x"),
    lambda meta: meta.update(core_asymmetry=None),
], ids=["eigval_text", "eigvals_text", "asymmetry_text", "asymmetry_null"])
def test_load_refuses_non_numeric_eigvals_and_asymmetry(tmp_path, edit):
    dec = seigh(DenseOperator(np.diag(np.arange(12, 0, -1.0))),
                draw_measurements(12, 9, 4, seed=0))
    save_sketched_eigh(dec, tmp_path / "dec")
    _edit_metadata(tmp_path / "dec/vectors.store", edit)
    with pytest.raises(IntegrityError, match="must be numbers"):
        load_sketched_eigh(tmp_path / "dec")


def _edit_metadata(store_path, edit):
    manifest_path = store_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest["metadata"])
    manifest_path.write_text(json.dumps(manifest))
