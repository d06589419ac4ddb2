"""The document pipeline's per-entry checks as they were before their fast
paths: the tests' oracles.

``qgsurf.config.point_violations`` resolves each branch once and keys local
intersections by index pairs, ``qgsurf.config.validate`` tests the whole
pairing matrix before it looks at single entries, and
``qgsurf.ratlin.eliminate`` carries its identity block only when the rank
falls short.  The functions here do none of that: they resolve names per
lookup, key by frozensets of names, walk every entry and always carry the
block, so the fast paths are checked against code that takes none of their
shortcuts.
"""

from __future__ import annotations

import itertools
from math import gcd

from qgsurf.errors import Violation
from qgsurf.ratlin import Elimination, _bareiss, _grid, _odd


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
