import json
import logging
import tracemalloc

import numpy as np
import pytest

from grassket.errors import ContractViolation, IntegrityError
from grassket.grassmann import (DEGENERATE_COL_RTOL, OrthonormalBasis, orthonormal_range,
                                overlap, range_factors)
from grassket.masks import SparseMask
from grassket.operators import (CountingOperator, DenseOperator, eigh_by_magnitude,
                                make_planted_operator)
from grassket.sketch import (SketchedEigh, draw_measurements, load_sketched_eigh,
                             residual_probe_norms, save_sketched_eigh, seigh)

from householder import householder_range


# ---------------------------------------------------------------------------
# measurement ensembles


def _upsilon(ens):
    # the whole upsilon, as one block of all its rows
    return next(ens.upsilon_blocks(ens.dim))[1]


def test_measurements_deterministic():
    a = draw_measurements(8, 4, 2, seed=7)
    b = draw_measurements(8, 4, 2, seed=7)
    assert np.array_equal(_upsilon(a), _upsilon(b))
    assert np.array_equal(a.omega_full(), b.omega_full())
    c = draw_measurements(8, 4, 2, seed=8)
    assert not np.array_equal(_upsilon(a), _upsilon(c))


def test_measurements_shapes_and_validation():
    ens = draw_measurements(16, 9, 4, seed=0)
    assert _upsilon(ens).shape == (16, 9)
    assert ens.omega_full().shape == (16, 9)
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


def _stacked(blocks, rows, dim):
    # the blocks cover 0..dim in order, each but the last ``rows`` tall
    blocks = list(blocks)
    starts = [s.start for s, _ in blocks]
    assert starts == list(range(0, dim, rows))
    assert all(len(b) == s.stop - s.start for s, b in blocks)
    assert all(len(b) == rows for _, b in blocks[:-1])
    return np.vstack([b for _, b in blocks])


@pytest.mark.parametrize("dim,n_inner,n_outer,seed", [
    (16, 9, 4, 3), (16, 5, 5, 4), (9, 9, 2, 5), (3000, 201, 100, 6), (100, 7, 3, 8)])
def test_draw_matches_reference_streams(dim, n_inner, n_outer, seed):
    ens = draw_measurements(dim, n_inner, n_outer, seed=seed)
    # every entry is a sign; stream 0 fills upsilon, stream 1 the leading
    # inner columns, stream 2 the trailing outer ones
    split = n_inner - n_outer
    upsilon, omega = _upsilon(ens), ens.omega_full()
    for block in (upsilon, omega):
        assert np.all(np.abs(block) == 1.0)
    streams = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(3)]
    assert np.array_equal(upsilon, _reference_signs(streams[0], (dim, n_inner)))
    assert np.array_equal(omega[:, :split], _reference_signs(streams[1], (dim, split)))
    assert np.array_equal(omega[:, split:], _reference_signs(streams[2], (dim, n_outer)))
    # row blocks of 32 and 64 rows, of 96 (which divides none of the dims)
    # and of all dim rows stack to the same signs bit for bit
    for rows in (32, 64, 96, dim):
        assert np.array_equal(_stacked(ens.upsilon_blocks(rows), rows, dim), upsilon)
        assert np.array_equal(_stacked(ens.omega_blocks(rows), rows, dim), omega)


def test_row_blocks_short_of_dim_split_on_whole_words():
    ens = draw_measurements(100, 7, 3, seed=0)
    for rows in (0, -32, 16, 48, 99):
        with pytest.raises(ValueError, match="multiple of 32"):
            next(ens.upsilon_blocks(rows))
    assert len(list(ens.omega_blocks(100))) == len(list(ens.omega_blocks(150))) == 1


def test_measurement_signs_are_fair():
    ens = draw_measurements(1030, 980, 300, seed=1)
    for block in (_upsilon(ens), ens.omega_full()):
        n = block.size
        assert n >= 10**6
        negative = np.count_nonzero(block == -1.0) / n
        assert abs(negative - 0.5) <= 5 * np.sqrt(0.25 / n)


def test_measurement_draw_allocates_no_block_size_temporary():
    # the ensemble holds no map; a row block is drawn with a temporary of
    # a quarter of its size at most
    dim, n_inner, n_outer, rows = 3000, 201, 100, 1024
    next(draw_measurements(16, 9, 4, seed=0).omega_blocks(16))  # imports before tracing
    tracemalloc.start()
    try:
        ens = draw_measurements(dim, n_inner, n_outer, seed=9)
        assert tracemalloc.get_traced_memory()[1] < 10**4
    finally:
        tracemalloc.stop()
    for blocks in (ens.upsilon_blocks(rows), ens.omega_blocks(rows)):
        tracemalloc.start()
        try:
            _, block = next(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == (rows, n_inner)
        assert peak - block.nbytes < block.nbytes / 4


def test_measurements_entrywise_mean():
    upsilon = _upsilon(draw_measurements(1030, 980, 300, seed=1))
    assert upsilon.size >= 10**6
    assert abs(upsilon.mean()) <= 0.01


def test_measurements_column_norms_concentrate():
    ens = draw_measurements(1024, 300, 100, seed=2)
    omega = ens.omega_full()
    for block in (_upsilon(ens), omega[:, :200], omega[:, 200:]):
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
    assert dec.rank == 1
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
    assert dec.rank == 8
    assert np.abs(dec.vectors.T @ dec.vectors - np.eye(8)).max() <= 1e-10
    basis = dec.eigenbasis().columns
    assert np.abs(basis.T @ basis - np.eye(8)).max() <= 1e-10
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
    assert np.abs(dec.eigvals - top).max() <= 1e-6 * np.abs(top).max()
    assert dec.rank == 6


def test_measurement_budget():
    mask = SparseMask(64, np.arange(4))
    op = make_planted_operator(64, [4.0, 3.0, 2.0, 1.0], mask, 0.5, seed=0)
    n_inner, n_outer = 13, 6

    counter = CountingOperator(op)
    seigh(counter, draw_measurements(64, n_inner, n_outer, seed=1))
    assert counter.applied_columns == n_inner
    assert counter.calls == 1  # one block of all n_inner columns


def _explicit_q_seigh(A, ens, range_basis):
    """The sketch with an explicit range basis Q = range_basis(outer sketch):
    the outer and inner blocks applied separately, upsilon^T Q and
    omega_full^T Q as products over D, the core symmetrized unscaled and the
    eigenvectors formed as Q U."""
    upsilon, omega = _upsilon(ens), ens.omega_full()
    split = ens.n_inner - ens.n_outer
    outer_sketch = A.apply(omega[:, split:])
    M = upsilon.T @ np.hstack([A.apply(omega[:, :split]), outer_sketch])
    Q = range_basis(outer_sketch)
    half = np.linalg.lstsq(upsilon.T @ Q, M, rcond=None)[0]
    core = np.linalg.lstsq(omega.T @ Q, half.T, rcond=None)[0].T
    eigvals, U = np.linalg.eigh(0.5 * (core + core.T))
    order = np.argsort(-np.abs(eigvals), kind="stable")
    return eigvals[order], Q @ U[:, order]


def _signed_dense(dim, seed):
    # distinct magnitudes, alternating signs
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    eigvals = 0.8 ** np.arange(dim) * (-1.0) ** np.arange(dim)
    matrix = (basis * eigvals) @ basis.T
    return DenseOperator(0.5 * (matrix + matrix.T))


@pytest.mark.parametrize("make,n_outer,k,falls_back,seed", [
    (lambda: make_planted_operator(300, 0.8 ** np.arange(60), None, 0.0, seed=1), 30, 10, False,
     37),
    (lambda: make_planted_operator(150, np.arange(20, 0, -1.0), None, 0.0, seed=4), 25, 10, True,
     32),
    (lambda: _signed_dense(80, seed=5), 20, 5, False, 27),
    (lambda: make_planted_operator(300, 2.0 ** 600 * 0.8 ** np.arange(60), None, 0.0, 1),
     30, 10, False, 37),
    (lambda: make_planted_operator(300, 2.0 ** -600 * 0.8 ** np.arange(60), None, 0.0, 1),
     30, 10, False, 37),
    (lambda: make_planted_operator(150, 2.0 ** 600 * np.arange(20, 0, -1.0), None, 0.0, 4),
     25, 10, True, 32),
    # CholeskyQR2 at cond(outer sketch) 1.0e8, near the edge of its certificate
    (lambda: DenseOperator(np.diag(np.concatenate([np.logspace(0, -7, 30), np.zeros(170)]))),
     30, 5, False, 7),
], ids=["decaying", "rank-deficient", "signed-dense", "scaled-up", "scaled-down",
        "rank-deficient-scaled-up", "cond-1e8"])
def test_seigh_matches_the_explicit_range_basis(make, n_outer, k, falls_back, seed):
    # bounds fixed before the comparison was run: eigenvalues within
    # 1e-12 |lambda_1| and top-k eigenspace overlap within 1e-12 of 1; every
    # case has an eigengap of at least 2% of |lambda_1| after the k-th value.
    # The fallback cases take their reference basis from Householder QR and
    # the SVD of its R, which seigh's one thin SVD replaces.  On the
    # CholeskyQR2 path seigh reads omega_full^T Q off omega_full^T Y, which
    # the cond-1e8 case checks where Y's triangular factors amplify most
    op = make()
    ens = draw_measurements(op.dim, 2 * n_outer + 1, n_outer, seed=seed)
    assert (range_factors(op.apply(ens.omega_full()[:, n_outer + 1:]))[2] is None) == falls_back
    eigvals, vectors = _explicit_q_seigh(
        op, ens, householder_range if falls_back else orthonormal_range)
    dec = seigh(op, ens)
    assert dec.rank == len(eigvals)
    assert np.abs(dec.eigvals - eigvals).max() <= 1e-12 * abs(eigvals[0])
    assert overlap(dec.eigenbasis(k), OrthonormalBasis(vectors[:, :k])) >= 1 - 1e-12


@pytest.mark.parametrize("eigvals,bound", [
    (100 * 0.9 ** np.arange(200), 4.155),
    (np.arange(60, 0, -1.0), 4.280),
], ids=["cholesky-qr2", "householder"])
def test_draw_and_seigh_peak_memory(eigvals, bound):
    # traced peak of the draw plus seigh in units of D x n_outer doubles,
    # held by omega_full and the operator's application of it (D x n_inner
    # each).  The bounds are the peaks of the sketch that draws upsilon in
    # row blocks, 4.15448 (CholeskyQR2) and 4.27943 (thin SVD), rounded up
    # in the third decimal
    dim, n_outer = 3000, 100
    op = make_planted_operator(dim, eigvals, None, 0.0, seed=3)
    seigh(op, draw_measurements(dim, 21, 10, seed=0))  # imports and caches before tracing
    tracemalloc.start()
    try:
        dec = seigh(op, draw_measurements(dim, 2 * n_outer + 1, n_outer, seed=7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.rank == min(n_outer, len(eigvals))
    assert peak <= bound * dim * n_outer * 8


def test_seigh_reports_numerical_rank_without_warning(caplog):
    op = make_planted_operator(100, np.arange(5, 0, -1.0), None, 0.0, seed=0)
    with caplog.at_level(logging.WARNING):
        dec = seigh(op, draw_measurements(100, 21, 10, seed=2))
    assert dec.rank == 5
    assert dec.vectors.shape == (100, 5)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_seigh_numerical_rank_full_and_zero():
    full = seigh(DenseOperator(np.diag(np.arange(20, 0, -1.0))),
                 draw_measurements(20, 11, 5, seed=6))
    assert full.rank == 5
    with pytest.raises(ContractViolation, match="outer sketch has numerical rank 0"):
        seigh(DenseOperator(np.zeros((12, 12))), draw_measurements(12, 6, 3, seed=4))


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
    # the fallback is the only SVD seigh runs; the expected rank counts the
    # singular values of the Householder R
    op = make()
    ens = draw_measurements(op.dim, 2 * n_outer + 1, n_outer, seed=n_outer)
    sketch = op.apply(ens.omega_full()[:, n_outer + 1:])
    singvals = np.linalg.svd(np.linalg.qr(sketch, mode="r"), compute_uv=False)
    expected = int(np.count_nonzero(singvals > DEGENERATE_COL_RTOL * np.linalg.norm(sketch)))
    calls = []
    svd = np.linalg.svd

    def spy(m, *args, **kwargs):
        calls.append(m.shape)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    if expected == 0:
        with pytest.raises(ContractViolation, match="outer sketch has numerical rank 0"):
            seigh(op, ens)
    else:
        dec = seigh(op, ens)
        assert dec.rank == expected
        assert np.abs(dec.vectors.T @ dec.vectors - np.eye(expected)).max() <= 1e-13
    assert calls == ([(op.dim, n_outer)] if falls_back else [])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", [-600, 600])
def test_seigh_at_extreme_operator_scales(exponent):
    # the Gram of the sketch and its norm would over- or underflow unscaled
    def run(scale):
        op = make_planted_operator(200, scale * np.arange(5, 0, -1.0), None, 0.0, 0)
        return seigh(op, draw_measurements(200, 21, 10, 0))

    scale = 2.0 ** exponent
    reference = run(1.0)
    dec = run(scale)
    assert dec.rank == reference.rank == 5
    np.testing.assert_allclose(dec.eigvals / scale, reference.eigvals, rtol=1e-12)
    assert np.isfinite(dec.core_asymmetry)


@pytest.mark.filterwarnings("error")
def test_seigh_of_a_rank_one_operator_near_the_float_maximum():
    dec = seigh(DenseOperator(np.full((20, 20), 1e300)), draw_measurements(20, 5, 2, 0))
    assert dec.rank == 1
    assert dec.eigvals[0] == pytest.approx(2e301, rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_seigh_refuses_an_inner_sketch_that_overflows():
    # finite entries whose sketch products pass the float range break the
    # numerical contract; numpy's LinAlgError would read as a usage error
    rng = np.random.default_rng(0)
    half = rng.standard_normal((200, 200))
    matrix = (half + half.T) * 1e306
    with pytest.raises(ContractViolation, match="inner sketch is not finite"):
        seigh(DenseOperator(matrix), draw_measurements(200, 41, 20, 0))


@pytest.mark.filterwarnings("error")
def test_seigh_symmetrizes_a_core_near_the_float_maximum():
    # the inner block holds +-1e308, which doubles past the float range when
    # the core is symmetrized unscaled
    matrix = np.zeros((12, 12))
    matrix[0, 0] = 1e308
    dec = seigh(DenseOperator(matrix), draw_measurements(12, 7, 3, 0))
    assert dec.rank == 1
    assert dec.eigvals[0] == pytest.approx(1e308, rel=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("seed,message", [
    (1, "sketch core is not finite"),
    (37, "sketch eigenvalues are not finite"),
])
def test_seigh_refuses_a_core_past_the_float_range(seed, message):
    # a full-rank operator near the float maximum seen through a two-column
    # sketch: the core's solves amplify what the sketch misses, past the
    # float range, or its eigenvalues pass it
    half = np.random.default_rng(seed).standard_normal((12, 12))
    matrix = half + half.T
    matrix *= 1e307 / np.abs(matrix).max()
    with pytest.raises(ContractViolation, match=message):
        seigh(DenseOperator(matrix), draw_measurements(12, 2, 2, seed))


# ---------------------------------------------------------------------------
# reconstruction and eigenbasis access


def test_exact_rank_reconstruction():
    # the sketch captures the planted rank 10, so it reconstructs the operator
    mask = SparseMask(90, np.arange(10))
    op = make_planted_operator(90, np.arange(10, 0, -1.0), mask, 0.5, seed=7)
    dec = seigh(op, draw_measurements(90, 31, 15, seed=8))
    dense = op.materialize()
    err = np.linalg.norm(dec.reconstruct(np.eye(90)) - dense)
    assert err <= 1e-8 * np.linalg.norm(dense)


def test_leading_eigenpair_of_an_exact_rank_operator():
    # exact-rank setting, so the leading eigenpair is recovered sharply
    diag = np.concatenate([np.arange(10, 0, -1.0), np.zeros(90)])
    op = DenseOperator(np.diag(diag))
    dec = seigh(op, draw_measurements(100, 31, 15, seed=9))
    assert dec.eigvals[0] == pytest.approx(10.0, rel=1e-8)
    vec = dec.eigenbasis(1).columns[:, 0]
    assert abs(vec[0]) >= 1 - 1e-8


def test_eigenbasis_range_check():
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
    assert dec.rank == 3
    save_sketched_eigh(dec, tmp_path / "dec")
    from grassket.storage import open_store
    assert open_store(tmp_path / "dec/vectors.store").metadata["numerical_rank"] == 3
    assert load_sketched_eigh(tmp_path / "dec").rank == 3


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


@pytest.mark.parametrize("rank", [-1, 5, 2.0, True, "3", None,
                                  pytest.param(3, id="int-3"), 0])
def test_load_refuses_numerical_rank_outside_the_columns(tmp_path, rank):
    dec = seigh(DenseOperator(np.diag(np.arange(12, 0, -1.0))),
                draw_measurements(12, 9, 4, seed=0))
    save_sketched_eigh(dec, tmp_path / "dec")
    _edit_metadata(tmp_path / "dec/vectors.store",
                   lambda meta: meta.update(numerical_rank=rank))
    with pytest.raises(IntegrityError, match="do not fit 4 stored eigenvectors"):
        load_sketched_eigh(tmp_path / "dec")


def test_load_refuses_a_store_padded_past_its_numerical_rank(tmp_path):
    # the layout of a rank-3 sketch with 4 outer measurements before 0.7.0:
    # a fourth column for an exact-zero eigenvalue past numerical_rank 3
    dec = seigh(DenseOperator(np.diag(np.arange(12, 0, -1.0))),
                draw_measurements(12, 9, 4, seed=0))
    save_sketched_eigh(dec, tmp_path / "dec")

    def pad(meta):
        meta["eigvals"][3] = 0.0
        meta["numerical_rank"] = 3

    _edit_metadata(tmp_path / "dec/vectors.store", pad)
    with pytest.raises(IntegrityError, match="numerical_rank 3 do not fit 4 stored"):
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
