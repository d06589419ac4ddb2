"""Point blow-ups with exact proper-transform bookkeeping.

Blowing up a point of multiplicity m on a curve C sends C to its proper
transform: C.C drops by m^2, K.C rises by m, the arithmetic genus drops by
m(m-1)/2, and C meets the new (-1)-curve m times.  Two branch curves through
the same point lose m*m' from their mutual pairing.  Everything else is
untouched; the ambient K^2 drops by exactly 1 per blow-up.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Sequence

from .config import BlowupStep, Configuration, CurveClass, PointSpec
from .errors import (
    ExcessMultiplicityError,
    NegativeGenusError,
    QgsurfError,
    SchemaError,
    UnknownCurveError,
)


def _consume_point(points: Sequence[PointSpec], branches) -> list[PointSpec]:
    """Drop the first declared point whose branch multiset matches the step."""
    want = sorted(branches)
    remaining = list(points)
    for i, p in enumerate(remaining):
        if sorted(p.branches) == want:
            del remaining[i]
            break
    return remaining


def blow_up(config: Configuration, step: BlowupStep) -> Configuration:
    """Apply one blow-up and return the new configuration."""
    names = {c.name for c in config.curves}
    for cname, _ in step.branches:
        if cname not in names:
            raise UnknownCurveError(cname)
    branch_names = [c for c, _ in step.branches]
    if len(set(branch_names)) != len(branch_names):
        raise SchemaError("blow-up branches repeat a curve")

    for (ca, ma), (cb, mb) in itertools.combinations(step.branches, 2):
        if config.pairing_of(ca, cb) < ma * mb:
            raise ExcessMultiplicityError(
                f"{ca}.{cb} = {config.pairing_of(ca, cb)} < {ma}*{mb}")
    for cname, mult in step.branches:
        if config.curve(cname).genus < mult * (mult - 1) // 2:
            raise NegativeGenusError(
                f"multiplicity {mult} at a point of {cname} needs genus >= {mult*(mult-1)//2}")

    label = step.label or f"e{config.blowup_count + 1}"
    if label in names:
        raise SchemaError(f"exceptional curve label {label!r} already in use")

    mult_of = dict(step.branches)
    new_curves = []
    for c in config.curves:
        m = mult_of.get(c.name, 0)
        if m:
            new_curves.append(replace(
                c,
                self_int=c.self_int - m * m,
                K_deg=c.K_deg + m,
                genus=c.genus - m * (m - 1) // 2,
            ))
        else:
            new_curves.append(c)
    exceptional = CurveClass(name=label, self_int=-1, K_deg=-1, genus=0,
                             tags=frozenset({"exceptional"}))
    new_curves.append(exceptional)

    n = len(config.curves)
    grid = [list(row) + [0] for row in config.pairing]
    grid.append([0] * (n + 1))
    idx = {c.name: i for i, c in enumerate(config.curves)}
    for cname, m in step.branches:
        i = idx[cname]
        grid[i][i] -= m * m
        grid[i][n] = m
        grid[n][i] = m
    grid[n][n] = -1
    for (ca, ma), (cb, mb) in itertools.combinations(step.branches, 2):
        i, j = idx[ca], idx[cb]
        grid[i][j] -= ma * mb
        grid[j][i] -= ma * mb

    points = _consume_point(config.points, step.branches)
    # the exceptional curve meets each branch curve in m transverse points
    for cname, m in step.branches:
        for k in range(m):
            points.append(PointSpec(name=f"{label}:{cname}:{k}",
                                    branches=((label, 1), (cname, 1))))

    return replace(
        config,
        curves=tuple(new_curves),
        pairing=tuple(tuple(row) for row in grid),
        points=tuple(points),
        blowup_count=config.blowup_count + 1,
    )


def replay(config: Configuration, steps: Sequence[BlowupStep]) -> tuple[Configuration, ...]:
    """Every configuration of a blow-up sequence: element k is the
    configuration after k steps.  A step that cannot be applied raises its
    ``QgsurfError`` unchanged but for the message, which names the step."""
    stages = [config]
    for i, step in enumerate(steps):
        try:
            stages.append(blow_up(stages[-1], step))
        except QgsurfError as exc:
            exc.args = (f"step {i} ({step.label or 'auto'}): {exc}",)
            raise
    return tuple(stages)


def apply_blowups(config: Configuration, steps: Sequence[BlowupStep]) -> Configuration:
    """Sequential composition of blow_up: the last configuration of replay."""
    return replay(config, steps)[-1]
