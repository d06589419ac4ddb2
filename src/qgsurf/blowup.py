"""Point blow-ups with exact proper-transform bookkeeping.

Blowing up a point of multiplicity m on a curve C sends C to its proper
transform: C.C drops by m^2, K.C rises by m, the arithmetic genus drops by
m(m-1)/2, and C meets the new (-1)-curve transversally in m points, kept as
one point record with count m, so a step costs the same for every m.  Two
branch curves through the same point lose m*m' from their mutual pairing.
Everything else is untouched; the ambient K^2 drops by exactly 1 per
blow-up.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .config import BlowupStep, Configuration, CurveClass, PointSpec, point_violations
from .errors import QgsurfError, SchemaError, ValidationError


def _consume_point(points: Sequence[PointSpec], branches) -> list[PointSpec]:
    """Take the blown-up point from the first record whose branch multiset
    matches the step: a counted record loses one, a single point goes."""
    want = sorted(branches)
    remaining = list(points)
    for i, p in enumerate(remaining):
        if sorted(p.branches) == want:
            if p.count > 1:
                remaining[i] = p._replace(count=p.count - 1)
            else:
                del remaining[i]
            break
    return remaining


def _step_label(config: Configuration, step: BlowupStep) -> str:
    """The name of the step's exceptional curve: its label, or else e<k> for
    the k-th blow-up of the configuration."""
    return step.label or f"e{config.blowup_count + 1}"


def blow_up(config: Configuration, step: BlowupStep) -> Configuration:
    """Apply one blow-up and return the new configuration.  A step whose point
    breaks the point rules (``qgsurf.config.point_violations``) raises
    ValidationError with the violations."""
    label = _step_label(config, step)
    violations = point_violations(config, [PointSpec(label, step.branches)])
    if violations:
        raise ValidationError(violations)
    if config.has_curve(label):
        raise SchemaError(f"exceptional curve label {label!r} already in use")

    n = len(config.curves)
    new_curves = list(config.curves)
    grid = [list(row) + [0] for row in config.pairing]
    grid.append([0] * n + [-1])
    for cname, m in step.branches:
        i = config.index_of(cname)
        c = new_curves[i]
        new_curves[i] = c._replace(self_int=c.self_int - m * m, K_deg=c.K_deg + m,
                                   genus=c.genus - m * (m - 1) // 2)
        grid[i][i] -= m * m
        grid[i][n] = m
        grid[n][i] = m
    for (ca, ma), (cb, mb) in itertools.combinations(step.branches, 2):
        i, j = config.index_of(ca), config.index_of(cb)
        grid[i][j] -= ma * mb
        grid[j][i] -= ma * mb
    new_curves.append(CurveClass(name=label, self_int=-1, K_deg=-1, genus=0,
                                 tags=frozenset({"exceptional"})))

    points = _consume_point(config.points, step.branches)
    # the exceptional curve meets each branch curve in m transverse points,
    # written as one record with count m
    points.extend(PointSpec(name=f"{label}:{cname}", branches=((label, 1), (cname, 1)), count=m)
                  for cname, m in step.branches)

    return config._replace(
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
            exc.args = (f"step {i} ({_step_label(stages[-1], step)}): {exc}",)
            raise
    return tuple(stages)


def apply_blowups(config: Configuration, steps: Sequence[BlowupStep]) -> Configuration:
    """Sequential composition of blow_up: the last configuration of replay."""
    return replay(config, steps)[-1]
