"""The document pipeline's per-entry checks as they were before their fast
paths: the tests' oracles.

``qgsurf.config.point_violations`` and ``snc_certificate`` resolve each
branch once and key local intersections by index pairs,
``qgsurf.config.validate`` tests the whole pairing matrix before it looks at
single entries, ``qgsurf.fibration.two_section_incidence_check`` reads
pairing rows by index, and ``qgsurf.ratlin.eliminate`` carries its identity
block only when the rank falls short and leaves a row alone when its pivot
step would not change it.  The functions here do none of that: they resolve
names per lookup, key by frozensets of names, walk every entry, update every
row and always carry the block, so the fast paths are checked against code
that takes none of their shortcuts.
"""

from __future__ import annotations

import itertools
from math import gcd

from qgsurf.errors import MissingPointDataError, UnknownCurveError, Violation
from qgsurf.ratlin import Elimination, _grid, _odd


def _local_intersections(points) -> dict[frozenset, int]:
    local: dict[frozenset, int] = {}
    for p in points:
        for (ca, ma), (cb, mb) in itertools.combinations(p.branches, 2):
            key = frozenset((ca, cb))
            local[key] = local.get(key, 0) + p.count * ma * mb
    return local


def point_violations(config, points) -> list[Violation]:
    out: list[Violation] = []
    sound = []
    for p in points:
        branch_curves = [c for c, _ in p.branches]
        unknown = [c for c in branch_curves if not config.has_curve(c)]
        if unknown:
            out.append(Violation("point", p.name,
                                 f"branch references unknown curve {unknown[0]!r}"))
            continue
        if len(set(branch_curves)) != len(branch_curves):
            out.append(Violation("point", p.name, "repeated curve in branches"))
            continue
        sound.append(p)
        for ca, ma in p.branches:
            if config.curve(ca).genus < ma * (ma - 1) // 2:
                out.append(Violation("point", p.name,
                                     f"multiplicity {ma} exceeds genus budget of {ca}"))
    for key, total in _local_intersections(sound).items():
        a, b = sorted(key)
        if total > config.pairing_of(a, b):
            out.append(Violation("point-pairing", f"{a}.{b}",
                                 f"declared points account for {total} > pairing {config.pairing_of(a, b)}"))
    return out


def pairing_violations(config) -> list[Violation]:
    """Diagonal, symmetry and sign of every pairing entry, one at a time."""
    out: list[Violation] = []
    n = len(config.curves)
    for i in range(n):
        if config.pairing[i][i] != config.curves[i].self_int:
            out.append(Violation("pairing-diagonal", config.curves[i].name,
                                 "diagonal differs from declared self-intersection"))
        for j in range(i + 1, n):
            if config.pairing[i][j] != config.pairing[j][i]:
                out.append(Violation("pairing-symmetry",
                                     f"{config.curves[i].name}.{config.curves[j].name}",
                                     "pairing not symmetric"))
            elif config.pairing[i][j] < 0:
                out.append(Violation("pairing-sign",
                                     f"{config.curves[i].name}.{config.curves[j].name}",
                                     f"negative off-diagonal {config.pairing[i][j]}"))
    return out


def eliminate(rows) -> Elimination:
    """One elimination with the identity block carried at every rank."""
    grid = _grid(rows)
    n_rows, n_cols = len(grid), len(grid[0])
    for i, row in enumerate(grid):
        row.extend(int(i == j) for j in range(n_rows))
    order, pivot_cols, last = _bareiss(grid, n_cols)
    r = len(pivot_cols)
    relations = []
    for k in sorted(range(r, n_rows), key=order.__getitem__):
        coeffs = grid[k][n_cols:]
        g = gcd(*coeffs)
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
            row[col] = 0
            row[col + 1:] = [(pivot * x - a * y) // prev for x, y in zip(row[col + 1:], tail)]
        pivot_cols.append(col)
        prev = pivot
        r += 1
        if r == n_rows:
            break
    return order, pivot_cols, prev


def snc_certificate(config, divisor) -> list[Violation]:
    """Simple-normal-crossing check for the named divisor.

    Empty iff every point touching a divisor curve is a transverse crossing
    of at most two branches, every positive pairing inside the divisor is
    fully accounted for by declared points (a record with a count is that
    many crossings), and all divisor curves are rational.  A positive pairing with no declared points at all raises
    MissingPointDataError (the data cannot decide the question).
    """
    names = list(divisor)
    in_divisor = set(names)
    out: list[Violation] = []

    for name in names:
        if config.curve(name).genus != 0:
            out.append(Violation("snc-component", name,
                                 f"component has genus {config.curve(name).genus}, not rational"))

    for p in config.points:
        if not any(c in in_divisor for c, _ in p.branches):
            continue
        if any(m != 1 for _, m in p.branches):
            out.append(Violation("snc-point", p.name,
                                 "non-transverse branch (multiplicity > 1)"))
        if len(p.branches) > 2:
            out.append(Violation("snc-point", p.name,
                                 f"triple point ({len(p.branches)} branches)"))

    accounted = _local_intersections(config.points)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            entry = config.pairing_of(a, b)
            if entry <= 0:
                continue
            key = frozenset((a, b))
            have = accounted.get(key, 0)
            if have == 0:
                raise MissingPointDataError(
                    f"{a}.{b} = {entry} but no declared points on the pair")
            if have != entry:
                out.append(Violation("snc-accounting", f"{a}.{b}",
                                     f"declared points account for {have} of pairing {entry}"))
    return out


def two_section_incidence_check(config) -> list:
    """Check 2-section degrees against every fully tracked fiber.

    A 2-section meets a non-multiple fiber in total degree 2 and the reduced
    curve of a multiplicity-2 fiber in total degree 1.  Fibers with partial
    component lists are skipped (the data cannot decide), and so are the
    starred types, whose components the fiber counts with multiplicities the
    data do not give.
    """
    out = []
    fib = config.fibration
    if fib is None:
        return out
    for s in fib.two_sections:
        if not config.has_curve(s):
            raise UnknownCurveError(s)
        for f in fib.fibers:
            if not f.is_fully_tracked() or not f.components or f.type.endswith("*"):
                continue
            total = sum(config.pairing_of(s, c) for c in f.components)
            expected = 1 if f.multiplicity == 2 else 2
            if total != expected:
                out.append(Violation(
                    "two-section", f"{s}.{f.tag}",
                    f"total intersection {total}, expected {expected}"))
    return out
