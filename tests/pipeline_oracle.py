"""The document pipeline's per-entry checks as they were first written, and
the fiber rule as it was before Zariski's lemma: the tests' oracles.

``qgsurf.config.point_violations`` and ``snc_certificate`` resolve each
branch once and key local intersections by index pairs,
``qgsurf.fibration.two_section_incidence_check`` reads
pairing rows by index, and ``qgsurf.ratlin.eliminate`` carries its identity
block only when the rank falls short and leaves a row alone when its pivot
step would not change it.  The functions here do none of that: they resolve
names per lookup, key by frozensets of names, walk every entry, update every
row and always carry the block, so the package's checks are compared with
code that takes none of their shortcuts.  ``qgsurf.config.validate`` walks
the pairing entry by entry; ``pairing_violations`` instead finds each kind's
positions as a set over the whole matrix, asymmetric pairs against its
transpose, and sorts them into the walk's order.  ``not_i_n`` is the I_n
rule that ``qgsurf.fibration``'s one rule for every Kodaira type replaced:
it tests I1, I2 and the n-cycle case by case.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import itemgetter
from typing import Optional

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
        unknown = [c for c in branch_curves if c not in config.position]
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
    """Diagonal, symmetry and sign of the pairing, each found as a set of
    positions over the whole matrix, then sorted into ``validate``'s order:
    by row, with the row's diagonal entry first."""
    pairing = config.pairing
    names = [c.name for c in config.curves]
    upper = set(itertools.combinations(range(len(names)), 2))
    transpose = tuple(zip(*pairing))
    diagonal = {i for i, c in enumerate(config.curves) if pairing[i][i] != c.self_int}
    asymmetric = {(i, j) for i, j in upper if pairing[i][j] != transpose[i][j]}
    negative = {(i, j) for i, j in upper - asymmetric if pairing[i][j] < 0}
    found = [((i, -1), Violation("pairing-diagonal", names[i],
                                 "diagonal differs from declared self-intersection"))
             for i in diagonal]
    found += [((i, j), Violation("pairing-symmetry", f"{names[i]}.{names[j]}",
                                 "pairing not symmetric"))
              for i, j in asymmetric]
    found += [((i, j), Violation("pairing-sign", f"{names[i]}.{names[j]}",
                                 f"negative off-diagonal {pairing[i][j]}"))
              for i, j in negative]
    return [v for _, v in sorted(found, key=itemgetter(0))]


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


def _multiplicities(config, f) -> Optional[list[int]]:
    """Kodaira's multiplicities of a fully tracked fiber's components: 1
    for an unstarred type, else the positive primitive vector spanning the
    kernel of their pairing, or None when none spans it."""
    if not f.type.endswith("*"):
        return [1] * len(f.components)
    e = eliminate([[config.pairing_of(a, b) for b in f.components] for a in f.components])
    if e.rank == len(f.components) - 1 and all(x > 0 for x in e.relations[0]):
        return list(e.relations[0])
    return None


def two_section_incidence_check(config) -> list:
    """Check 2-section degrees against every fully tracked fiber.

    A 2-section meets the components of a non-multiple fiber, weighted by
    their multiplicities, in total degree 2 and the reduced curve of a
    multiplicity-2 fiber in total degree 1.  Fibers with partial component
    lists are skipped (the data cannot decide), and so are starred fibers
    whose pairing gives no multiplicities.
    """
    out = []
    fib = config.fibration
    if fib is None:
        return out
    for s in fib.two_sections:
        if s not in config.position:
            raise UnknownCurveError(s)
        for f in fib.fibers:
            if not f.is_fully_tracked():
                continue
            m = _multiplicities(config, f)
            if m is None:
                continue
            total = sum(x * config.pairing_of(s, c) for x, c in zip(m, f.components))
            expected = 1 if f.multiplicity == 2 else 2
            if total != expected:
                out.append(Violation(
                    "two-section", f"{s}.{f.tag}",
                    f"total intersection {total}, expected {expected}"))
    return out


def not_i_n(config, names) -> Optional[str]:
    """Why the named curves are not a fiber of type I_n, n = len(names), or
    None when they are one: I_1 is one curve of genus 1 and self-intersection
    0 (a nodal rational curve), I_2 two smooth rational (-2)-curves that
    pair 2, and I_n for n >= 3 one connected cycle of n smooth rational
    (-2)-curves."""
    at = [config.position[c] for c in names]
    curves = [config.curves[i] for i in at]
    if len(names) == 1:
        c = curves[0]
        if (c.genus, c.self_int) != (1, 0):
            return (f"{c.name} has genus {c.genus} and self-intersection {c.self_int}, "
                    f"not 1 and 0")
        return None
    for c in curves:
        if (c.genus, c.self_int) != (0, -2):
            return f"{c.name} is not a smooth rational (-2)-curve"
    rows = [config.pairing[i] for i in at]
    if len(names) == 2:
        value = rows[0][at[1]]
        return None if value == 2 else f"{names[0]}.{names[1]} pair to {value}, not 2"
    n = len(names)
    within = itemgetter(*at)  # a row's entries at the fiber's components
    neighbours = []
    for k, row in enumerate(rows):
        # the pairings of component k with the others, in fiber order
        others = within(row)
        others = others[:k] + others[k + 1:]
        if others.count(1) != 2 or others.count(0) != n - 3:
            for b, value in zip(names[:k] + names[k + 1:], others):
                if value not in (0, 1):
                    return f"{names[k]}.{b} pair to {value}, not 0 or 1"
            return f"{names[k]} meets {others.count(1)} of the other components, not 2"
        a = others.index(1)
        b = others.index(1, a + 1)
        neighbours.append((a + (a >= k), b + (b >= k)))
    # every component meets two others: walk from the first along its cycle
    prev, here = None, 0
    for length in range(1, n + 1):
        a, b = neighbours[here]
        prev, here = here, (b if a == prev else a)
        if here == 0:
            break
    if here != 0 or length != n:
        return "the components do not form a single cycle"
    return None
