import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreathfock.ratlinalg import (ZERO, SparseRow, det, inverse, kernel_basis,
                                  rank, rref, solve, span_select)

F = Fraction


def test_rref_pivots():
    rows, pivots = rref([[F(0), F(2)], [F(1), F(1)]])
    assert pivots == [0, 1]
    assert rows == [[F(1), F(0)], [F(0), F(1)]]


def test_rank():
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([[F(1), F(2)], [F(0), F(1)]]) == 2
    assert rank([[F(0), F(0)]]) == 0


def test_kernel_vectors_annihilate():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = kernel_basis(m)
    assert len(basis) == 2  # 3 columns, rank 1
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve():
    m = [[F(2), F(0)], [F(1), F(3)]]
    x = solve(m, [F(4), F(11)])
    assert x == [F(2), F(3)]
    assert solve([[F(1), F(1)], [F(2), F(2)]], [F(0), F(1)]) is None


def test_det_and_inverse():
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert det(m) == -2
    inv = inverse(m)
    ident = [[sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
    assert ident == [[F(1), F(0)], [F(0), F(1)]]
    with pytest.raises(ValueError):
        inverse([[F(1), F(2)], [F(2), F(4)]])


def test_det_of_permutation_matrix():
    m = [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(1), F(0), F(0)]]
    assert det(m) == 1  # even permutation


def test_span_select():
    v1, v2 = [F(1), F(0)], [F(0), F(1)]
    r, picked = span_select([v1, v1, v2, [F(1), F(1)]])
    assert r == 2 and list(picked) == [0, 2]


def first_come_span_select(vectors):
    """Oracle for `span_select`: scan the vectors in order and keep each
    one that stays nonzero after reduction by the vectors kept so far."""
    basis = []  # (pivot column, reduced vector)
    selected = []
    for idx, vec in enumerate(vectors):
        v = [F(x) for x in vec]
        for pc, b in basis:
            if v[pc] != 0:
                f = v[pc]
                v = [a - f * c for a, c in zip(v, b)]
        pc = next((c for c, x in enumerate(v) if x != 0), None)
        if pc is None:
            continue
        v = [x / v[pc] for x in v]
        basis.append((pc, v))
        selected.append(idx)
    return len(selected), selected


@st.composite
def rational_families(draw):
    """Up to 7 vectors of one width 0-4: nonzero multiples of a few drawn
    rational vectors and of the zero vector, so repeats, dependent vectors
    and zeros occur, and the family may be empty."""
    width = draw(st.integers(0, 4))
    entry = st.fractions(-3, 3, max_denominator=4) | st.integers(-2, 2)
    pool = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=1, max_size=4)) + [[0] * width]
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                    st.sampled_from([1, -2, F(1, 3)])),
                          max_size=7))
    return [[c * x for x in pool[i]] for i, c in picks]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rational_families())
@example([])
@example([[0, 0], [0, 0]])
@example([[], []])
def test_span_select_is_the_first_come_selection(vectors):
    r, picked = span_select(vectors)
    assert (r, list(picked)) == first_come_span_select(vectors)
    assert r == rank(vectors)


cell = st.integers(-4, 4).map(F)
cell = st.integers(-4, 4).map(F)
mat3 = st.lists(st.lists(cell, min_size=3, max_size=3), min_size=3, max_size=3)


@settings(max_examples=40)
@given(mat3, mat3)
def test_det_is_multiplicative(a, b):
    ab = [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
          for i in range(3)]
    assert det(ab) == det(a) * det(b)


@settings(max_examples=30)
@given(mat3)
def test_rank_bounds_and_kernel_dim(m):
    r = rank(m)
    assert 0 <= r <= 3
    assert len(kernel_basis(m)) == 3 - r


def test_det_needs_a_square_matrix():
    # a check that raises, so it holds under python -O too
    for bad in ([[1, 2]], [[F(1), F(2)], [F(3)]], [[1], [2]]):
        with pytest.raises(ValueError, match="square"):
            det(bad)
    assert det([]) == 1


# Mixed int / Fraction input: the elimination shares Fraction entries with
# its input instead of copying them, so the input must come back untouched,
# and the result must not depend on how the entries were typed.

int_cell = st.integers(-3, 3)
frac_cell = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


def _typed(rows, kinds):
    """The same matrix with each entry an int or a Fraction, as `kinds`
    (cycled) says; integral entries only may become ints."""
    out, k = [], 0
    for row in rows:
        new = []
        for x in row:
            as_int = kinds[k % len(kinds)] and x.denominator == 1
            new.append(int(x) if as_int else x)
            k += 1
        out.append(new)
    return out


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    cell = draw(st.sampled_from([int_cell.map(F), frac_cell]))
    return draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


kinds = st.lists(st.booleans(), min_size=1, max_size=5)


@settings(max_examples=80, derandomize=True)
@given(matrices(square=True), kinds)
def test_det_leaves_input_and_ignores_entry_types(m, ks):
    mixed = _typed(m, ks)
    ints = _typed(m, [True])
    snapshot = [list(row) for row in mixed]
    ids = [[id(x) for x in row] for row in mixed]
    d = det(m)
    assert det(mixed) == det(ints) == d
    assert isinstance(det(ints), Fraction)
    assert mixed == snapshot
    assert [[id(x) for x in row] for row in mixed] == ids


@settings(max_examples=80, derandomize=True)
@given(matrices(), kinds)
def test_rref_and_rank_leave_input_and_ignore_entry_types(m, ks):
    mixed = _typed(m, ks)
    ints = _typed(m, [True])
    snapshot = [list(row) for row in mixed]
    reduced, pivots = rref(m)
    assert rref(mixed) == rref(ints) == (reduced, pivots)
    assert all(isinstance(x, Fraction) for row in rref(ints)[0] for x in row)
    assert rank(mixed) == rank(ints) == len(pivots)
    assert mixed == snapshot
    for r, pc in enumerate(pivots):
        assert reduced[r][pc] == 1
        assert all(reduced[i][pc] == 0 for i in range(len(reduced)) if i != r)


# The sparse-row elimination of `det` against the permutation sum, on
# dense, sparse, singular and row-permuted matrices of mixed int and
# Fraction entries.

entry = st.one_of(int_cell, frac_cell)


def leibniz(m) -> Fraction:
    """The determinant as the signed sum over permutations."""
    n = len(m)
    total = Fraction(0)
    for p in itertools.permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) if inversions % 2 else Fraction(1)
        for i, j in enumerate(p):
            term *= m[i][j]
        total += term
    return total


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 6))
    shape = draw(st.sampled_from(["dense", "sparse", "singular", "permuted"]))
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n and shape == "sparse":
        keep = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                      st.integers(0, n - 1)), max_size=2 * n))
        m = [[x if (i, j) in keep else 0 for j, x in enumerate(row)]
             for i, row in enumerate(m)]
    elif n and shape == "singular":
        # a row that is a multiple of another, or zero
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(entry)
        m[i] = [k * x for x in m[j]] if i != j else [0] * n
    elif shape == "permuted":
        # the rows of a triangular matrix shuffled, so pivots need swaps
        m = [[x if j >= i else 0 for j, x in enumerate(row)]
             for i, row in enumerate(m)]
        m = [m[i] for i in draw(st.permutations(range(n)))]
    return m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(square_matrices())
def test_det_is_the_permutation_sum(m):
    d = det(m)
    assert isinstance(d, Fraction)
    assert d == leibniz(m)


# `SparseRow`: a row on its support that reads as the dense row.


def test_sparse_row_reads_as_the_dense_row():
    dense = [F(0), F(3), F(0), F(-1, 2)]
    row = SparseRow(4, {1: F(3), 3: F(-1, 2)})
    assert len(row) == 4
    assert [row[j] for j in range(4)] == dense
    assert [row[j] for j in range(-4, 0)] == dense
    assert row[2] is ZERO
    for j in (4, -5):
        with pytest.raises(IndexError):
            row[j]
    assert list(row) == dense and all(type(x) is Fraction for x in row)
    assert row == dense and dense == row
    assert row == tuple(dense) and tuple(dense) == row
    assert row == [0, 3, 0, F(-1, 2)]
    assert row == SparseRow.of(dense) and SparseRow.of(dense).support == {
        1: F(3), 3: F(-1, 2)}
    for other in (dense[:3], dense + [F(0)], [F(0), F(3), F(1), F(-1, 2)],
                  SparseRow(5, row.support), "abcd", 7):
        assert row != other and other != row
    with pytest.raises(TypeError):
        row[0] = F(1)
    with pytest.raises(TypeError):
        hash(row)


def test_det_rejects_sparse_rows_of_the_wrong_width():
    for bad in ([SparseRow(2, {0: F(1)})],
                [SparseRow(2, {0: F(1)}), SparseRow(3, {1: F(1)})]):
        with pytest.raises(ValueError, match="square"):
            det(bad)


@st.composite
def sparse_square_matrices(draw):
    """Square matrices with about half their entries zero and their rows
    shuffled, so elimination swaps rows and fills in entries; some are
    singular."""
    n = draw(st.integers(1, 6))
    cell = st.one_of(st.just(0), entry)
    m = [[draw(cell) for _ in range(n)] for _ in range(n)]
    return [m[i] for i in draw(st.permutations(range(n)))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sparse_square_matrices())
# a swap at column 0, then fill-in at (2, 2): det 13
@example([[0, 1, 1], [1, 0, 5], [2, 3, 0]])
# singular: the third row is the sum of the first two
@example([[1, 0, 2], [0, 3, 0], [1, 3, 2]])
def test_det_on_sparse_rows_is_det_on_dense_rows(m):
    rows = [SparseRow.of(row) for row in m]
    supports = [dict(row.support) for row in rows]
    assert rows == m
    d = det(rows)
    assert isinstance(d, Fraction)
    assert d == det(m) == leibniz(m)
    assert [row.support for row in rows] == supports  # det copies
