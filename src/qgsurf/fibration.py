"""Elliptic-fibration bookkeeping.

Kodaira fiber tags, Euler-number accounting against 12*chi, incidence of
2-sections with declared fibers, and the lint that an I9 fiber on a rational
or Enriques elliptic surface comes with three I1 fibers.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import NamedTuple, Optional

from .errors import UnknownTagError, Violation

_TAG_RE = re.compile(r"^(2)?(I\d+\*?|II\*?|III\*?|IV\*?)$")

# (Euler number, component count) of the additive types
_ADDITIVE = {"II": (2, 1), "III": (3, 2), "IV": (4, 3), "IV*": (8, 7), "III*": (9, 8),
             "II*": (10, 9)}


def _i_n(reduced: str) -> Optional[int]:
    """n when the reduced type is I_n (not I_n*), else None."""
    m = re.fullmatch(r"I(\d+)", reduced)
    return None if m is None else int(m.group(1))


def parse_tag(tag: str) -> tuple[str, int]:
    """Split a fiber tag into (reduced Kodaira type, multiplicity).

    A leading "2" marks a multiple fiber, e.g. "2I1"; the reduced type of a
    multiple fiber must be I_n.
    """
    if not isinstance(tag, str):
        raise UnknownTagError(f"fiber type must be a string, got {tag!r}")
    m = _TAG_RE.match(tag.strip())
    if not m:
        raise UnknownTagError(f"unknown Kodaira tag {tag!r}")
    mult = 2 if m.group(1) else 1
    reduced = m.group(2)
    if _i_n(reduced) == 0:
        raise UnknownTagError(f"{tag!r} is a smooth fiber, not a singular Kodaira type")
    if mult == 2 and _i_n(reduced) is None:
        raise UnknownTagError(f"multiple fiber {tag!r} must have reduced type I_n")
    return reduced, mult


def _fiber_numbers(reduced: str) -> tuple[int, int]:
    """(Euler number, component count) of a fiber of a reduced type that
    ``parse_tag`` has already accepted."""
    if reduced in _ADDITIVE:
        return _ADDITIVE[reduced]
    n = int(reduced[1:].rstrip("*"))  # I_n or I_n*
    return (n + 6, n + 5) if reduced.endswith("*") else (n, max(n, 1))


def euler_number(tag: str) -> int:
    """Topological Euler number of a singular fiber of the given type.

    I_n has Euler number n; the additive types carry the standard values
    (I_n* -> n+6, II -> 2, III -> 3, IV -> 4, IV* -> 8, III* -> 9, II* -> 10).
    Multiplicity does not change the Euler number.
    """
    return _fiber_numbers(parse_tag(tag)[0])[0]


class FiberSpec(NamedTuple):
    type: str                      # reduced Kodaira tag, e.g. "I9"
    multiplicity: int              # 1 or 2
    components: tuple[str, ...]    # tracked component curves (may be partial)

    @property
    def tag(self) -> str:
        return ("2" if self.multiplicity == 2 else "") + self.type

    def is_fully_tracked(self) -> bool:
        return len(self.components) == _fiber_numbers(self.type)[1]


class FibrationData(NamedTuple):
    fibers: tuple[FiberSpec, ...]
    two_sections: tuple[str, ...] = ()
    multiple_fiber_disjoint_from: tuple[str, ...] = ()
    generic_fiber_class_known: bool = False

    def validate(self, config) -> list:
        out = []
        seen: set[str] = set()
        for f in self.fibers:
            if f.multiplicity == 2 and _i_n(f.type) is None:
                out.append(Violation("fibration", f.tag,
                                     "multiple fiber must have reduced type I_n"))
            if len(set(f.components)) != len(f.components):
                repeated = sorted(c for c, k in Counter(f.components).items() if k > 1)
                out.append(Violation("fibration", f.tag,
                                     f"components repeated within the fiber: {repeated}"))
            overlap = seen.intersection(f.components)
            if overlap:
                out.append(Violation("fibration", f.tag,
                                     f"components shared across fibers: {sorted(overlap)}"))
            seen.update(f.components)
            count = _fiber_numbers(f.type)[1]
            if len(f.components) > count:
                out.append(Violation("fibration", f.tag,
                                     f"{len(f.components)} components exceed the type's {count}"))
        out.extend(self._meetings(config))
        if config.surface.kind == "enriques":
            doubles = sum(1 for f in self.fibers if f.multiplicity == 2)
            if doubles > 2:
                out.append(Violation("fibration", "multiple-fibers",
                                     f"{doubles} multiplicity-2 fibers declared; at most two exist"))
        return out

    def _meetings(self, config) -> list:
        """Distinct fibers are disjoint: a violation for each pair of
        components of two different fibers with a nonzero pairing.  Tags
        repeat, so the subject is the component pair and the detail names
        both fibers.  A component shared by two fibers is reported above."""
        out = []
        index_of, pairing = config.index_of, config.pairing
        for k, f in enumerate(self.fibers):
            for g in self.fibers[k + 1:]:
                for a in f.components:
                    row = pairing[index_of(a)]
                    for b in g.components:
                        value = row[index_of(b)]
                        if value and a != b:
                            out.append(Violation(
                                "fibration", f"{a}.{b}",
                                f"components of distinct fibers {f.tag} and {g.tag} "
                                f"pair to {value}, not 0"))
        return out


class EulerCheck(NamedTuple):
    total: int
    target: int
    verdict: bool
    deficit: int
    note: str = ""


def euler_sum_check(fibration: FibrationData, chi: int) -> EulerCheck:
    """Compare declared singular-fiber Euler numbers against 12*chi.

    Verdict is true exactly on deficit 0.  A positive deficit is legal
    (fibers may be left undeclared) and flagged; a negative one means the
    declaration overshoots the topology.
    """
    total = sum(_fiber_numbers(f.type)[0] for f in fibration.fibers)
    target = 12 * chi
    deficit = target - total
    note = ""
    if deficit > 0:
        note = "unlisted fibers"
    elif deficit < 0:
        note = "declared fibers exceed 12*chi"
    return EulerCheck(total=total, target=target, verdict=(deficit == 0),
                      deficit=deficit, note=note)


def two_section_incidence_check(config) -> list:
    """Check 2-section degrees against every fully tracked fiber.

    A 2-section meets a non-multiple fiber in total degree 2 and the reduced
    curve of a multiplicity-2 fiber in total degree 1.  Fibers with partial
    component lists are skipped (the data cannot decide).
    """
    out = []
    fib = config.fibration
    if fib is None:
        return out
    tracked = [f for f in fib.fibers if f.is_fully_tracked() and f.components]
    index_of = config.index_of
    for s in fib.two_sections:
        row = config.pairing[index_of(s)]
        for f in tracked:
            total = sum([row[index_of(c)] for c in f.components])
            expected = 1 if f.multiplicity == 2 else 2
            if total != expected:
                out.append(Violation(
                    "two-section", f"{s}.{f.tag}",
                    f"total intersection {total}, expected {expected}"))
    return out


def i9_forces_i1_lint(fibration: Optional[FibrationData], surface_kind: str,
                      chi: int | None = None) -> list[str]:
    """Advisory: an I9 (or 2I9) fiber should come with three I1-type fibers.

    Applies on Enriques surfaces and on E(1); an under-declared configuration
    is flagged, not failed.
    """
    if fibration is None:
        return []
    rational_elliptic = surface_kind == "e" and chi == 1
    if surface_kind != "enriques" and not rational_elliptic:
        return []
    has_i9 = any(f.type == "I9" for f in fibration.fibers)
    if not has_i9:
        return []
    n_i1 = sum(1 for f in fibration.fibers if f.type == "I1")
    if n_i1 < 3:
        return [f"an I9 fiber implies three I1-type fibers; only {n_i1} declared"]
    return []
