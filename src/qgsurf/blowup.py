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

from itertools import repeat
from operator import add
from typing import Sequence

from .config import BlowupStep, Configuration, CurveClass, PointSpec, point_violations
from .errors import QgsurfError, SchemaError, ValidationError


_EXCEPTIONAL = frozenset({"exceptional"})  # the tags of every exceptional curve


def _consume_point(points: Sequence[PointSpec], branches) -> list[PointSpec]:
    """Take the blown-up point from the first record whose branch multiset
    matches the step: a counted record loses one, a single point goes.  A
    record whose first branch is not one of the step's cannot match and is
    passed over unsorted."""
    want = sorted(branches)
    firsts = set(branches)
    remaining = list(points)
    for i, p in enumerate(remaining):
        if p.branches[0] in firsts and sorted(p.branches) == want:
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
    violations = point_violations(config, [PointSpec(label, step.branches)],
                                  "the blown-up point accounts for")
    if violations:
        raise ValidationError(violations)
    position = config.position
    if label in position:
        raise SchemaError(f"exceptional curve label {label!r} already in use")

    n = len(config.curves)
    ids = [position[cname] for cname, _ in step.branches]
    new_curves = list(config.curves)
    rows = list(map(add, config.pairing, repeat((0,))))  # each row gains C.E = 0
    exceptional = [0] * n + [-1]
    # only the branch curves' rows change: C.C drops by m^2, C.E = m, and two
    # branch curves lose m*m' from their mutual pairing
    for i, (_, m) in zip(ids, step.branches):
        name, self_int, k_deg, genus, tags = new_curves[i]
        new_curves[i] = CurveClass(name, self_int - m * m, k_deg + m,
                                   genus - m * (m - 1) // 2, tags)
        row = list(rows[i])
        for j, (_, mj) in zip(ids, step.branches):
            row[j] -= m * mj
        row[n] = m
        rows[i] = tuple(row)
        exceptional[i] = m
    rows.append(tuple(exceptional))
    new_curves.append(CurveClass(label, -1, -1, 0, _EXCEPTIONAL))

    points = _consume_point(config.points, step.branches)
    # the exceptional curve meets each branch curve in m transverse points,
    # written as one record with count m
    points.extend([PointSpec(f"{label}:{cname}", ((label, 1), (cname, 1)), m)
                   for cname, m in step.branches])

    return config._child(label, tuple(new_curves), tuple(rows), tuple(points))


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
