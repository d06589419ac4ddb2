"""Exact rational dense linear algebra over ``fractions.Fraction``: the tests' oracle.

This is the Gaussian elimination the package used before its integer
(Bareiss) kernel, ``qgsurf.ratlin``.  It stays here, outside the package,
so that the integer views, the elimination witnesses and the closed-form
chain discrepancies (``qgsurf.wahl``) are checked against code that shares
nothing with them.  Elimination picks the first nonzero pivot in each
column.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from qgsurf.errors import QgsurfError, SingularMatrixError


class NotSymmetricError(QgsurfError):
    """A symmetric matrix was required."""


class RatMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int | None = None) -> "RatMatrix":
        cols = rows if cols is None else cols
        return cls([[0] * cols for _ in range(rows)])

    def transpose(self) -> "RatMatrix":
        return RatMatrix(zip(*self.entries))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_square(self) -> bool:
        return self.rows == self.cols

    def mul_vector(self, v: Sequence) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        vec = [Fraction(x) for x in v]
        return tuple(
            sum((row[j] * vec[j] for j in range(self.cols)), Fraction(0))
            for row in self.entries
        )

    def leading_minor(self, k: int) -> "RatMatrix":
        return RatMatrix([row[:k] for row in self.entries[:k]])


def _eliminate(grid: list[list[Fraction]]) -> int:
    """In-place row reduction with first-nonzero pivots; returns the rank."""
    n_rows, n_cols = len(grid), len(grid[0])
    r = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if grid[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        pivot = grid[r][col]
        for i in range(n_rows):
            if i != r and grid[i][col] != 0:
                factor = grid[i][col] / pivot
                row_i, row_r = grid[i], grid[r]
                for j in range(col, n_cols):
                    row_i[j] -= factor * row_r[j]
        r += 1
        if r == n_rows:
            break
    return r


def rank(matrix: RatMatrix) -> int:
    """Rank over the rationals via exact Gaussian elimination."""
    grid = [list(row) for row in matrix.entries]
    return _eliminate(grid)


def determinant(matrix: RatMatrix) -> Fraction:
    """Exact determinant (square matrices); fraction-based elimination."""
    if not matrix.is_square():
        raise ValueError("determinant needs a square matrix")
    n = matrix.rows
    grid = [list(row) for row in matrix.entries]
    det = Fraction(1)
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if grid[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            grid[col], grid[pivot_row] = grid[pivot_row], grid[col]
            det = -det
        pivot = grid[col][col]
        det *= pivot
        for i in range(col + 1, n):
            if grid[i][col] != 0:
                factor = grid[i][col] / pivot
                for j in range(col, n):
                    grid[i][j] -= factor * grid[col][j]
    return det


def solve_unique(matrix: RatMatrix, rhs: Sequence) -> tuple[Fraction, ...]:
    """Exact solution of M x = v for square nonsingular M.

    Raises SingularMatrixError when det M = 0.  The package computes chain
    discrepancies in closed form (``wahl.discrepancies``); this general
    solve is the tests' independent oracle for that formula.
    """
    if not matrix.is_square():
        raise ValueError("solve_unique needs a square matrix")
    n = matrix.rows
    if len(rhs) != n:
        raise ValueError("dimension mismatch")
    grid = [list(row) + [Fraction(rhs[i])] for i, row in enumerate(matrix.entries)]
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if grid[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        grid[col], grid[pivot_row] = grid[pivot_row], grid[col]
        pivot = grid[col][col]
        for i in range(n):
            if i != col and grid[i][col] != 0:
                factor = grid[i][col] / pivot
                for j in range(col, n + 1):
                    grid[i][j] -= factor * grid[col][j]
    return tuple(grid[i][n] / grid[i][i] for i in range(n))


def is_negative_definite(matrix: RatMatrix) -> bool:
    """Sylvester test: leading principal minors alternate, starting negative.

    Requires a symmetric matrix; any zero leading minor fails the test.
    """
    if not matrix.is_symmetric():
        raise NotSymmetricError("negative definiteness needs a symmetric matrix")
    sign = -1
    for k in range(1, matrix.rows + 1):
        d = determinant(matrix.leading_minor(k))
        if (d > 0) != (sign > 0) or d == 0:
            return False
        sign = -sign
    return True


def chain_gram(entries) -> RatMatrix:
    """Intersection matrix of the chain [b1, ..., bl]: diagonal -bi, adjacent entries 1."""
    chain = tuple(entries)
    size = len(chain)
    return RatMatrix(
        [
            [
                -chain[i] if i == j else (1 if abs(i - j) == 1 else 0)
                for j in range(size)
            ]
            for i in range(size)
        ]
    )
