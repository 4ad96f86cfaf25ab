import tracemalloc

import numpy as np
import pytest

from grassket import operators
from grassket.errors import ContractViolation
from grassket.grassmann import OrthonormalBasis, stiefel_from_rng
from grassket.masks import SparseMask, magnitude_ranking, mask_eigenspace_overlap
from grassket.operators import (CountingOperator, DenseOperator, PlantedOperator,
                                eigh_by_magnitude, make_planted_operator)

from householder import positive_qr


def exact_topk_overlap(op, mask, k):
    """Dense oracle: overlap of a mask with the top-k eigenspace of op."""
    _, vectors = eigh_by_magnitude(op.materialize())
    basis = OrthonormalBasis(vectors[:, :k], check=False)
    return mask_eigenspace_overlap(mask, basis, k)


def test_identity_maps_basis_vector():
    op = DenseOperator(np.diag(np.ones(4)))
    e2 = np.zeros((4, 1))
    e2[2, 0] = 1.0
    assert np.array_equal(op.apply(e2), e2)


def test_diagonal_action():
    op = DenseOperator(np.diag([2.0, -2.0, 4.0]))
    out = op.apply(np.ones((3, 1)))
    assert np.array_equal(out[:, 0], [2.0, -2.0, 4.0])


def test_planted_apply_matches_dense_oracle():
    mask = SparseMask(50, np.arange(10))
    op = make_planted_operator(50, np.arange(10, 0, -1), mask, 1.0, seed=0)
    dense = op.basis @ (op.eigvals[:, None] * op.basis.T)
    X = np.random.default_rng(1).standard_normal((50, 7))
    assert np.abs(op.apply(X) - dense @ X).max() < 1e-12


def test_apply_block_validation():
    op = DenseOperator(np.diag(np.ones(4)))
    with pytest.raises(ValueError):
        op.apply(np.ones((5, 2)))
    with pytest.raises(ValueError):
        op.apply(np.ones(4))  # 1-d vectors must be passed as 1-column blocks
    bad = np.ones((4, 1))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        op.apply(bad)


@pytest.mark.parametrize("seed", range(3))
def test_hermitian_symmetry_on_probes(seed):
    rng = np.random.default_rng(seed)
    mask = SparseMask(30, np.arange(5))
    ops = [
        make_planted_operator(30, [9.0, -7.0, 5.0, 2.0, 1.0], mask, 0.5, seed=seed),
        DenseOperator(np.diag(rng.standard_normal(30))),
    ]
    for op in ops:
        for _ in range(20):
            x = rng.standard_normal((30, 1))
            y = rng.standard_normal((30, 1))
            lhs = float(op.apply(x)[:, 0] @ y[:, 0])
            rhs = float(x[:, 0] @ op.apply(y)[:, 0])
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_apply_is_linear():
    rng = np.random.default_rng(7)
    mask = SparseMask(25, np.arange(6))
    op = make_planted_operator(25, [6, 5, 4, 3, 2, 1], mask, 0.3, seed=2)
    for _ in range(10):
        x = rng.standard_normal((25, 3))
        y = rng.standard_normal((25, 3))
        a, b = rng.standard_normal(2)
        lhs = op.apply(a * x + b * y)
        rhs = a * op.apply(x) + b * op.apply(y)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


def test_planted_alignment_one_gives_full_overlap():
    mask = SparseMask(10, [0, 1, 2])
    op = make_planted_operator(10, [5.0, 4.0, 3.0], mask, 1.0, seed=3)
    assert exact_topk_overlap(op, mask, 3) == pytest.approx(1.0, abs=1e-10)
    # eigenvectors supported exactly on the mask rows
    off_mask = np.delete(np.arange(10), mask.indices)
    assert np.abs(op.basis[off_mask]).max() < 1e-12


def test_planted_alignment_zero_is_chance_level():
    # uniform subspaces overlap a fixed mask with mean k/D
    mask = SparseMask(10, [0, 1, 2])
    values = []
    for seed in range(200):
        op = make_planted_operator(10, [5.0, 4.0, 3.0], mask, 0.0, seed=seed)
        values.append(exact_topk_overlap(op, mask, 3))
    mean = np.mean(values)
    stderr = np.std(values, ddof=1) / np.sqrt(len(values))
    assert abs(mean - 0.3) <= 4 * stderr


def test_planted_alignment_half_sits_between_baseline_and_one():
    rng = np.random.default_rng(0)
    for seed in rng.integers(0, 2**31, size=5):
        mask = SparseMask(200, np.arange(50))
        op = make_planted_operator(200, np.arange(50, 0, -1), mask, 0.5, seed=int(seed))
        value = exact_topk_overlap(op, mask, 50)
        assert 50 / 200 < value < 1.0


def test_planted_alignment_monotone():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for seed in range(5):
        mask = SparseMask(120, np.arange(0, 60, 2))
        ops = [make_planted_operator(120, np.arange(30, 0, -1), mask, a, seed=seed)
               for a in grid]
        values = [exact_topk_overlap(op, mask, 30) for op in ops]
        assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(grid) - 1))


@pytest.mark.parametrize("alignment", [0.25, 0.5, 1.0])
def test_planted_blend_is_householder_q_of_padded_blend(alignment):
    # the D x r blend with zero rows off the mask, drawn in the same order
    dim, r = 300, 20
    mask = SparseMask(dim, np.arange(0, 3 * r, 3))
    op = make_planted_operator(dim, np.arange(r, 0, -1.0), mask, alignment, seed=4)
    rng = np.random.default_rng(4)
    haar = stiefel_from_rng(rng, dim, r).columns
    supported = np.zeros((dim, r))
    supported[mask.indices] = stiefel_from_rng(rng, r, r).columns
    W, _, Vt = np.linalg.svd(supported.T @ haar)
    blend = (1.0 - alignment) * haar + alignment * (supported @ (W @ Vt))
    assert np.abs(op.basis - positive_qr(blend)[0]).max() <= 1e-13


def test_planted_build_holds_two_basis_sized_arrays():
    # the blend overwrites the Haar draw and is orthonormalized in place, so
    # the traced peak is about two D x r arrays (2.103 measured), was 4.05
    dim, r = 20000, 200
    eigvals = 100 * 0.9 ** np.arange(r)
    make_planted_operator(100, eigvals[:5], SparseMask(100, np.arange(5)), 0.5, 0)  # imports
    tracemalloc.start()
    try:
        op = make_planted_operator(dim, eigvals, SparseMask(dim, np.arange(r)), 0.5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.basis.shape == (dim, r)
    assert peak <= 2.2 * dim * r * 8


def test_planted_alignment_out_of_range():
    mask = SparseMask(10, [0, 1, 2])
    with pytest.raises(ValueError):
        make_planted_operator(10, [3, 2, 1], mask, 1.5, seed=0)
    with pytest.raises(ValueError):
        make_planted_operator(10, [3, 2, 1], mask, -0.1, seed=0)


def test_planted_mask_rank_mismatch():
    with pytest.raises(ValueError):
        make_planted_operator(10, [3, 2, 1], SparseMask(10, [0, 1]), 1.0, seed=0)


def test_planted_dense_eigendecomposition_recovery():
    mask = SparseMask(40, np.arange(8))
    eigvals = np.array([9.0, -8.0, 7.0, -6.0, 5.0, 4.0, 3.0, 2.0])
    op = make_planted_operator(40, eigvals, mask, 0.7, seed=11)
    recovered, vectors = eigh_by_magnitude(op.materialize())
    assert np.abs(recovered[:8] - eigvals).max() < 1e-10
    assert np.abs(recovered[8:]).max() < 1e-10
    top = OrthonormalBasis(vectors[:, :8], check=False)
    planted = OrthonormalBasis(op.basis, check=False)
    from grassket.grassmann import overlap
    assert overlap(top, planted) >= 1 - 1e-10


def test_planted_requires_nonincreasing_magnitudes():
    with pytest.raises(ValueError):
        PlantedOperator(np.eye(4)[:, :2], [1.0, 5.0])


def test_planted_rejects_non_finite_basis():
    with pytest.raises(ContractViolation):
        PlantedOperator(np.full((4, 2), np.nan), [1.0, 1.0])


@pytest.mark.parametrize("make", [
    lambda: DenseOperator(np.diag([1.0, np.inf])),
], ids=["dense"])
def test_operators_reject_non_finite_entries(make):
    with pytest.raises(ContractViolation):
        make()


def test_dense_operator_refuses_non_symmetric_or_rectangular():
    for matrix, message in ((np.triu(np.ones((6, 6))), "not symmetric"),
                            (np.arange(24.0).reshape(6, 4), r"\(6, 4\) is not square")):
        with pytest.raises(ContractViolation, match=message):
            DenseOperator(matrix)
    # asymmetry within 1e-12 * max(1, max|A|) per entry is rounding, not a contract break
    near = np.full((3, 3), 1e3)
    near[0, 1] += 1e-10
    assert DenseOperator(near).dim == 3


def _symmetric(rng, dim, order="C"):
    half = rng.standard_normal((dim, dim))
    return np.asarray(half + half.T, order=order)


@pytest.mark.parametrize("entry", [(299, 7), (7, 299)])
def test_dense_symmetry_check_reaches_the_ragged_tile(entry):
    matrix = _symmetric(np.random.default_rng(0), 300)  # 300 = 2 * 128 + 44
    matrix[entry] += 1e-6
    with pytest.raises(ContractViolation, match="not symmetric"):
        DenseOperator(matrix)


@pytest.mark.parametrize("peak", [1e3, -1e3, 0.5])
def test_dense_symmetry_tolerance_is_inclusive(peak):
    # the scale is max(1, max|A|), whichever sign the largest entry has
    matrix = _symmetric(np.random.default_rng(1), 300) * 1e-3
    matrix[0, 0] = peak
    tol = 1e-12 * max(1.0, abs(peak))
    matrix[5, 250], matrix[250, 5] = 0.0, tol  # asymmetry exactly on the boundary
    assert DenseOperator(matrix).dim == 300
    matrix[250, 5] = np.nextafter(tol, np.inf)
    with pytest.raises(ContractViolation, match="not symmetric"):
        DenseOperator(matrix)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix", [[[1e308, -1e308], [1e308, 1.0]],
                                    [[1e308, 1e308], [-1e308, 1.0]]])
def test_dense_symmetry_overflow_is_a_refusal_without_warning(matrix):
    # A_ij - A_ji overflows to inf, which is past any tolerance
    with pytest.raises(ContractViolation, match="not symmetric"):
        DenseOperator(np.array(matrix))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (299, 7), (130, 131)])
def test_dense_non_finite_is_refused_before_asymmetry(bad, entry):
    matrix = np.triu(np.ones((300, 300)))  # not symmetric either
    matrix[entry] = bad
    with pytest.raises(ContractViolation, match="non-finite"):
        DenseOperator(matrix)


def test_dense_check_agrees_with_allclose_in_either_memory_order():
    # the reference is the whole-matrix check that the tiled pass replaced
    rng = np.random.default_rng(2)
    for _ in range(60):
        dim = int(rng.integers(1, 300))
        matrix = _symmetric(rng, dim) * 10.0 ** rng.uniform(-15, 15)
        tol = 1e-12 * max(1.0, np.abs(matrix).max())
        i, j = rng.integers(0, dim, 2)
        matrix[i, j] = matrix[j, i] + tol * rng.choice([0.5, 1.0, 1.5, -1.0])
        expected = np.allclose(matrix, matrix.T, rtol=0.0, atol=tol)
        for order in "CF":
            try:
                DenseOperator(np.asarray(matrix, order=order))
            except ContractViolation:
                assert not expected
            else:
                assert expected


@pytest.mark.parametrize("order", "CF")
def test_dense_operator_keeps_a_float64_matrix(order):
    matrix = _symmetric(np.random.default_rng(4), 40, order)
    assert DenseOperator(matrix).matrix is matrix


def test_dense_check_allocates_no_full_size_temporary():
    matrix = _symmetric(np.random.default_rng(5), 1024)
    tracemalloc.start()
    try:
        DenseOperator(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix.nbytes / 4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_planted_rejects_non_finite_eigenvalues(bad):
    with pytest.raises(ValueError, match="finite"):
        make_planted_operator(50, [bad, 1.0], None, 0.0, 0)


def test_counting_operator():
    op = CountingOperator(DenseOperator(np.diag(np.ones(6))))
    op.apply(np.ones((6, 4)))
    op.apply(np.ones((6, 2)))
    assert op.applied_columns == 6
    assert op.calls == 2


def _refuse(*args, **kwargs):
    raise AssertionError("this path must not run")


@pytest.mark.parametrize("kind", ["planted", "dense", "diagonal", "counting"])
def test_reference_eigenbasis_and_unique_rank(kind, monkeypatch):
    dim, k = 12, 3
    planted = make_planted_operator(dim, [4.0, -3.0, 2.0, 0.0], None, 0.0, seed=0)
    matrix = planted.materialize()
    diag = np.linspace(-2.5, 3.0, dim)
    if kind == "planted":
        op, expected = planted, (planted.basis[:, :k], "planted")
        monkeypatch.setattr(operators, "eigh_by_magnitude", _refuse)
    elif kind == "dense":
        op = DenseOperator(matrix)
        expected = (eigh_by_magnitude(matrix)[1][:, :k], "dense")
        monkeypatch.setattr(op, "_apply", _refuse)  # no block application
    elif kind == "diagonal":
        op = DenseOperator(np.diag(diag))
        expected = (eigh_by_magnitude(np.diag(diag))[1][:, :k], "dense")
    else:
        op = CountingOperator(DenseOperator(matrix))
        expected = (eigh_by_magnitude(matrix)[1][:, :k], "dense")
        monkeypatch.setattr(op.op, "_apply", _refuse)  # the wrapped matrix is the reference
    vectors, source = op.reference_eigenbasis(k)
    assert source == expected[1]
    assert np.array_equal(vectors, expected[0])
    assert op.unique_rank == (3 if kind == "planted" else None)
    if kind == "counting":
        assert op.applied_columns == 0  # the wrapped operator's reference, uncounted


def test_magnitude_order_tie_rule():
    # equal magnitudes: lower index first, whatever the sign
    values = np.array([1.0, -3.0, 3.0, 2.0, 3.0])
    assert list(magnitude_ranking(values)) == [1, 2, 4, 3, 0]


def test_eigh_by_magnitude_ordering():
    matrix = np.diag([1.0, -5.0, 3.0])
    eigvals, vectors = eigh_by_magnitude(matrix)
    assert list(eigvals) == [-5.0, 3.0, 1.0]
    assert np.abs(np.abs(vectors) - np.eye(3)[:, [1, 2, 0]]).max() < 1e-12


def test_dense_operator_from_store(tmp_path):
    from grassket.storage import create_layout, write_columns

    rng = np.random.default_rng(2)
    half = rng.standard_normal((12, 3))
    matrix = half @ half.T
    store = create_layout(tmp_path / "m.store", 12, 12, chunk_cols=5)
    write_columns(store, 0, matrix)
    op = DenseOperator.from_store(store)
    assert np.array_equal(op.matrix, matrix)
