"""Exact integer linear algebra: one fraction-free elimination loop.

Every rank, determinant and solve in the package runs ``_bareiss``, the
fraction-free Gaussian elimination of Bareiss (1968), through ``eliminate``.
Pivot k replaces each row i below it by

    (p_k * row_i - a_i * pivot_row) / p_{k-1},

with p_k the pivot, a_i the row's entry in the pivot column and p_{-1} = 1;
a row with a_i = 0 is only scaled by p_k / p_{k-1}, and left alone when
p_k = p_{k-1}, as it is for most rows of a sparse pairing matrix.  The
division is exact: after k steps every entry is a (k+1) x (k+1) minor of
the input (Sylvester's identity), so no fraction is ever formed and no entry
grows past those minors.  The pivot of each column is its first nonzero
entry at or below the current row, so the pivot columns are the first
independent columns, read from left to right.

``eliminate`` returns a witness a reader can check by hand: the pivot rows
and columns, the nonzero maximal minor on them and one integer relation per
dependent row, read from an identity block that it carries through the loop
only when the rank falls short.
``rank``, ``determinant`` and ``solve_unique`` read their answers off that
witness and run no elimination of their own.
Entries must be integers; no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index
from typing import NamedTuple, Sequence

from .errors import SingularMatrixError


class Elimination(NamedTuple):
    """What one elimination of an integer matrix M certifies.

    ``minor`` is the determinant of M on ``pivot_rows`` x ``pivot_cols``
    (both ascending) and is nonzero; ``rank`` is their common length.  For
    each row outside ``pivot_rows``, in ascending order, ``relations`` holds
    one primitive integer vector c with c . M = 0, supported on the pivot rows
    and that row, with a positive coefficient on that row.
    """

    rank: int
    pivot_rows: tuple[int, ...]
    pivot_cols: tuple[int, ...]
    minor: int
    relations: tuple[tuple[int, ...], ...]


def _grid(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """A mutable copy of the rows; rejects empty, ragged and non-integer input."""
    grid = [list(map(index, row)) for row in rows]
    if not grid or not grid[0]:
        raise ValueError("matrix must have at least one row and column")
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise ValueError("ragged rows")
    return grid


def _bareiss(grid: list[list[int]], n_cols: int) -> tuple[list[int], list[int], int]:
    """Fraction-free row echelon form of ``grid``, in place.

    Pivots are sought in the first ``n_cols`` columns; later columns are
    carried along.  Returns (order, pivot_cols, last): the row now at
    position k is input row order[k], pivot k sits at (k, pivot_cols[k]),
    and ``last`` is the determinant of the input on rows order[:rank] and
    the pivot columns, in those orders (1 when the rank is 0).
    """
    n_rows = len(grid)
    order = list(range(n_rows))
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for col in range(n_cols):
        for p in range(r, n_rows):
            if grid[p][col]:
                break
        else:
            continue
        if p != r:
            grid[r], grid[p] = grid[p], grid[r]
            order[r], order[p] = order[p], order[r]
        pivot = grid[r][col]
        tail = grid[r][col + 1:]
        for i in range(r + 1, n_rows):
            row = grid[i]
            a = row[col]
            if a:
                row[col] = 0
                row[col + 1:] = [(pivot * x - a * y) // prev for x, y in zip(row[col + 1:], tail)]
            elif pivot != prev:
                row[col + 1:] = [pivot * x // prev for x in row[col + 1:]]
        pivot_cols.append(col)
        prev = pivot
        r += 1
        if r == n_rows:
            break
    return order, pivot_cols, prev


def _odd(perm: Sequence[int]) -> bool:
    """Whether sorting ``perm`` takes an odd number of transpositions."""
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2 == 1


def eliminate(rows: Sequence[Sequence[int]]) -> Elimination:
    """Rank of an integer matrix, with its witness (see ``Elimination``).

    The rank, pivots and minor come from one elimination of the matrix.
    Only when the rank falls short of the row count does a second one run,
    with an identity block carried through the loop: a row left zero in the
    matrix columns holds, in that block, the integer combination of input
    rows that produced it.  The block never changes a pivot, so both runs
    agree on rank, pivots and minor.
    """
    grid = _grid(rows)
    n_rows, n_cols = len(grid), len(grid[0])
    order, pivot_cols, last = _bareiss(grid, n_cols)
    r = len(pivot_cols)
    relations = []
    if r < n_rows:
        grid = _grid(rows)
        for i, row in enumerate(grid):
            row.extend(int(i == j) for j in range(n_rows))
        order, pivot_cols, last = _bareiss(grid, n_cols)
        for k in sorted(range(r, n_rows), key=order.__getitem__):
            coeffs = grid[k][n_cols:]
            g = gcd(*coeffs)
            # the row's own coefficient ends as +-last, never 0, so "<= 0" acts alike
            if coeffs[order[k]] < 0:
                g = -g
            relations.append(tuple(c // g for c in coeffs))
    return Elimination(
        rank=r,
        pivot_rows=tuple(sorted(order[:r])),
        pivot_cols=tuple(pivot_cols),
        minor=-last if _odd(order[:r]) else last,
        relations=tuple(relations),
    )


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix."""
    return eliminate(rows).rank


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix.

    At full rank the pivots are every row and every column, so the witness's
    minor is the determinant, sign included.
    """
    grid = _grid(rows)
    n = len(grid)
    if len(grid[0]) != n:
        raise ValueError("determinant needs a square matrix")
    w = eliminate(grid)
    return w.minor if w.rank == n else 0


def solve_unique(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> tuple[Fraction, ...]:
    """Exact solution of M x = v for a square nonsingular integer M.

    Raises SingularMatrixError when det M = 0.  M x = v says that v is the
    combination sum_j x_j * (column j of M), so this eliminates the n + 1
    rows made of the columns of M followed by v.  M is nonsingular exactly
    when the n columns are the pivot rows; v is then the one dependent row,
    and its relation c, with c_v > 0, gives x_j = -c_j / c_v.  The package
    computes chain discrepancies in closed form (``wahl.discrepancies``).
    """
    grid = _grid(rows)
    n = len(grid)
    if len(grid[0]) != n:
        raise ValueError("solve_unique needs a square matrix")
    if len(rhs) != n:
        raise ValueError("dimension mismatch")
    w = eliminate([*zip(*grid), rhs])
    if w.pivot_rows != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    *c, c_v = w.relations[0]
    return tuple(Fraction(-x, c_v) for x in c)
