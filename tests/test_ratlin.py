from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratlin_oracle as oracle
from qgsurf.errors import SingularMatrixError
from qgsurf.ratlin import determinant, eliminate, rank, solve_unique
from ratlin_oracle import NotSymmetricError, RatMatrix, chain_gram, is_negative_definite


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def int_gram(entries):
    """The chain's intersection matrix as integer rows."""
    return [[int(x) for x in row] for row in chain_gram(entries).entries]


def submatrix(rows, pivot_rows, pivot_cols):
    return RatMatrix([[rows[i][j] for j in pivot_cols] for i in pivot_rows])


def test_rank_identity():
    assert rank(identity(3)) == 3
    assert oracle.rank(RatMatrix.identity(3)) == 3


def test_rank_zero_matrix():
    assert rank([[0] * 3] * 3) == 0
    assert oracle.rank(RatMatrix.zero(3)) == 0


def test_rank_two_chain_gram():
    # det of [[-3,1],[1,-3]] is 8, nonzero by hand expansion
    assert rank(int_gram([3, 3])) == 2
    assert determinant(int_gram([3, 3])) == 8
    assert determinant([[0, 1], [0, 2]]) == 0
    # the antidiagonal of size 3 is one transposition away from the identity
    assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert oracle.rank(chain_gram([3, 3])) == 2


def test_solve_one_by_one():
    assert solve_unique([[-4]], [2]) == (Fraction(-1, 2),)
    # a permutation matrix: the pivot of column 0 is not in row 0
    assert solve_unique([[0, 1], [1, 0]], [2, 3]) == (3, 2)


def test_solve_identity_returns_rhs():
    v = [Fraction(3, 7), Fraction(-2), Fraction(5, 3)]
    assert oracle.solve_unique(RatMatrix.identity(3), v) == tuple(v)
    assert solve_unique(identity(3), [3, -2, 5]) == (3, -2, 5)


def test_solve_tridiagonal_chain_system():
    x = solve_unique(int_gram([4, 2, 3, 2]), [2, 0, 1, 0])
    assert x == (Fraction(-2, 3), Fraction(-2, 3), Fraction(-2, 3), Fraction(-1, 3))
    assert oracle.solve_unique(chain_gram([4, 2, 3, 2]), [2, 0, 1, 0]) == x


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_unique([[1, 1], [1, 1]], [1, 0])
    # v in the column space, and the zero matrix: still singular
    with pytest.raises(SingularMatrixError):
        solve_unique([[1, 1], [1, 1]], [1, 1])
    with pytest.raises(SingularMatrixError):
        solve_unique([[0, 0], [0, 0]], [0, 0])
    with pytest.raises(SingularMatrixError):
        oracle.solve_unique(RatMatrix([[1, 1], [1, 1]]), [1, 0])


def test_integer_views_reject_bad_shapes():
    with pytest.raises(ValueError):
        rank([])
    with pytest.raises(ValueError):
        rank([[1, 2], [3]])
    with pytest.raises(ValueError):
        determinant([[1, 2]])
    with pytest.raises(ValueError):
        solve_unique([[1, 0], [0, 1]], [1])
    with pytest.raises(ValueError):
        solve_unique([[1, 0]], [1])
    with pytest.raises(TypeError):
        rank([[Fraction(1, 2)]])


def test_negative_definite_single_entry():
    assert is_negative_definite(RatMatrix([[-4]]))
    assert not is_negative_definite(RatMatrix([[0]]))
    assert not is_negative_definite(RatMatrix([[1]]))


def test_negative_definite_gram_622():
    # leading minors by hand: -6, 11, -16
    assert is_negative_definite(chain_gram([6, 2, 2]))
    assert [determinant([row[:k] for row in int_gram([6, 2, 2])[:k]])
            for k in (1, 2, 3)] == [-6, 11, -16]


def test_negative_definite_requires_symmetry():
    with pytest.raises(NotSymmetricError):
        is_negative_definite(RatMatrix([[-1, 2], [0, -1]]))


def test_negative_semidefinite_rejected():
    # the cycle Gram of nine (-2)-curves is only semidefinite
    n = 9
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = -2
        grid[i][(i + 1) % n] = 1
        grid[(i + 1) % n][i] = 1
    assert not is_negative_definite(RatMatrix(grid))
    # its kernel is spanned by the fiber class, the sum of the nine curves
    witness = eliminate(grid)
    assert witness.rank == 8 and determinant(grid) == 0
    assert witness.relations == ((1,) * 9,)


def test_all_small_chain_grams_negative_definite():
    # exhaustive at reduced bounds; the full (8, 12) sweep runs in the kernel
    for length in range(1, 4):
        for entries in product(range(2, 6), repeat=length):
            assert is_negative_definite(chain_gram(entries)), entries


_small_rational = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)


@given(st.lists(st.lists(_small_rational, min_size=3, max_size=3),
                min_size=2, max_size=4))
@settings(max_examples=150, deadline=None)
def test_rank_equals_transpose_rank(rows):
    m = RatMatrix(rows)
    assert oracle.rank(m) == oracle.rank(m.transpose())


@given(st.lists(st.lists(_small_rational, min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(_small_rational, min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_solve_round_trip(rows, rhs):
    m = RatMatrix(rows)
    try:
        x = oracle.solve_unique(m, rhs)
    except SingularMatrixError:
        assert oracle.rank(m) < 3
        return
    assert m.mul_vector(x) == tuple(Fraction(v) for v in rhs)


def test_matrix_is_immutable():
    m = RatMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 5


# -- the integer elimination against the Fraction oracle ----------------------

_entry = st.integers(min_value=-4, max_value=4)


@st.composite
def int_matrices(draw, max_rows=12, max_cols=18, square=False):
    """Integer matrices up to 12 x 18, entries -4..4; some rows are small
    integer combinations of earlier ones, so every rank deficit occurs."""
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    n_cols = n_rows if square else draw(st.integers(min_value=1, max_value=max_cols))
    rows = []
    for _ in range(n_rows):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(min_value=-2, max_value=2),
                                   min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows))
                         for j in range(n_cols)])
        else:
            rows.append(draw(st.lists(_entry, min_size=n_cols, max_size=n_cols)))
    return rows


@given(int_matrices())
@settings(max_examples=200, deadline=None)
def test_integer_rank_equals_fraction_rank(rows):
    expected = oracle.rank(RatMatrix(rows))
    assert rank(rows) == expected
    assert eliminate(rows).rank == expected


@given(int_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_integer_determinant_equals_fraction_determinant(rows):
    assert determinant(rows) == oracle.determinant(RatMatrix(rows))


@given(int_matrices(square=True), st.data())
@settings(max_examples=200, deadline=None)
def test_integer_solve_equals_fraction_solve(rows, data):
    rhs = data.draw(st.lists(_entry, min_size=len(rows), max_size=len(rows)))
    try:
        expected = oracle.solve_unique(RatMatrix(rows), rhs)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            solve_unique(rows, rhs)
        return
    assert solve_unique(rows, rhs) == expected


@given(int_matrices())
@settings(max_examples=200, deadline=None)
def test_witness_minor_and_relations(rows):
    w = eliminate(rows)
    n_rows = len(rows)
    assert list(w.pivot_rows) == sorted(set(w.pivot_rows))
    assert list(w.pivot_cols) == sorted(set(w.pivot_cols))
    assert len(w.pivot_rows) == len(w.pivot_cols) == w.rank
    # the minor on the pivots is nonzero and is the oracle's determinant
    if w.rank:
        assert w.minor == oracle.determinant(submatrix(rows, w.pivot_rows, w.pivot_cols))
    assert w.minor != 0
    # one relation per dependent row: primitive, nonzero, c . M = 0
    dependent = [i for i in range(n_rows) if i not in w.pivot_rows]
    assert len(w.relations) == len(dependent)
    for row_index, c in zip(dependent, w.relations):
        assert len(c) == n_rows and any(c)
        assert gcd(*c) == 1
        assert c[row_index] > 0
        # the row's own coefficient divides the minor, so it is never 0
        assert abs(w.minor) % c[row_index] == 0
        assert all(c[i] == 0 for i in dependent if i != row_index)
        assert all(sum(c[i] * rows[i][j] for i in range(n_rows)) == 0
                   for j in range(len(rows[0])))


def test_witness_of_a_zero_matrix():
    w = eliminate([[0, 0], [0, 0]])
    assert (w.rank, w.pivot_rows, w.pivot_cols, w.minor) == (0, (), (), 1)
    assert w.relations == ((1, 0), (0, 1))


def test_witness_minor_sign_follows_ascending_rows():
    # the pivot of column 0 is row 1, so the rows are swapped in the loop
    w = eliminate([[0, 1], [1, 0]])
    assert (w.pivot_rows, w.pivot_cols, w.minor) == ((0, 1), (0, 1), -1)
