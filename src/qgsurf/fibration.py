"""Elliptic-fibration bookkeeping.

Kodaira fiber tags, Euler-number accounting against 12*chi, the
Shioda-Tate bound on fiber components, the configuration and the class of
each fully tracked fiber, the number of double fibers, incidence of
2-sections with declared fibers, and the lint that an I9 fiber comes with
three I1 fibers.  What the surface kind fixes is read from the surface.

One rule, from Zariski's lemma, checks a fully tracked fiber of any type.
Give its components C_i Kodaira's multiplicities m_i (``_multiplicities``).
The fiber is Kodaira's when the C_i are smooth rational (-2)-curves (for I1
and II, one curve of genus 1 and square 0), F = sum m_i C_i pairs 0 with
each, they are connected, and max m_i is the type's.  Then
diag(m) * pairing * diag(m) is minus a connected graph's Laplacian, so the
pairing is negative semidefinite with radical Z F, and the component count
with max m_i fixes the extended Dynkin diagram.  The pairing cannot tell I1
from II, I2 from III or I3 from IV: each pair differs only by a cusp, a
tangency or three curves through one point.
"""

from __future__ import annotations

import re
from collections import Counter
from operator import mul
from typing import NamedTuple, Optional

from .errors import UnknownTagError, Violation, digit_limit
from .ratlin import eliminate

# ASCII digits only: ``\d`` would also read "I٩" or "I９" as a second I9
_TAG_RE = re.compile(r"^(2)?(I[0-9]+\*?|II\*?|III\*?|IV\*?)$")

# (Euler number, component count, largest component multiplicity) of the
# types without an index; I_n and I_n* are in _fiber_numbers
_KODAIRA = {"II": (2, 1, 1), "III": (3, 2, 1), "IV": (4, 3, 1), "IV*": (8, 7, 3),
            "III*": (9, 8, 4), "II*": (10, 9, 6)}


def _i_n(reduced: str) -> Optional[int]:
    """n when the reduced type is I_n (not I_n*), else None."""
    m = re.fullmatch(r"I([0-9]+)", reduced)
    return None if m is None else int(m.group(1))


def parse_tag(tag: str) -> tuple[str, int]:
    """Split a fiber tag into (reduced Kodaira type, multiplicity).

    A leading "2" marks a multiple fiber, e.g. "2I1"; the reduced type of a
    multiple fiber must be I_n.  The reduced type is spelled one way, so
    every rule can compare it as a string: "2I09" gives ("I9", 2).
    """
    if not isinstance(tag, str):
        raise UnknownTagError(f"fiber type must be a string, got {tag!r}")
    m = _TAG_RE.match(tag.strip())
    if not m:
        raise UnknownTagError(f"unknown Kodaira tag {tag!r}")
    mult = 2 if m.group(1) else 1
    reduced = re.sub(r"^I0+(?=[0-9])", "I", m.group(2))  # "I09" is I9
    index = reduced[1:].rstrip("*")
    if index.isdigit():  # I_n or I_n*
        try:
            int(index)
        except ValueError as exc:
            limit = digit_limit(exc)
            if limit is None:
                raise
            raise UnknownTagError(f"fiber index has more than {limit} digits, the "
                                  "interpreter's limit for text-to-integer conversion") from None
    if _i_n(reduced) == 0:
        raise UnknownTagError(f"{tag!r} is a smooth fiber, not a singular Kodaira type")
    if mult == 2 and _i_n(reduced) is None:
        raise UnknownTagError(f"multiple fiber {tag!r} must have reduced type I_n")
    return reduced, mult


def _fiber_numbers(reduced: str) -> tuple[int, int, int]:
    """(Euler number, component count, largest component multiplicity) of a
    fiber of a reduced type that ``parse_tag`` has already accepted."""
    if reduced in _KODAIRA:
        return _KODAIRA[reduced]
    n = int(reduced[1:].rstrip("*"))  # I_n or I_n*
    return (n + 6, n + 5, 2) if reduced.endswith("*") else (n, max(n, 1), 1)


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
        """Every component of the type is listed, each once."""
        return len(set(self.components)) == len(self.components) == _fiber_numbers(self.type)[1]


class FibrationData(NamedTuple):
    fibers: tuple[FiberSpec, ...]
    two_sections: tuple[str, ...] = ()
    multiple_fiber_disjoint_from: tuple[str, ...] = ()

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
        if config.blowup_count == 0:
            # a blow-up on a fiber leaves its strict transform, not a fiber
            weighted = []
            for f in filter(FiberSpec.is_fully_tracked, self.fibers):
                m = _multiplicities(config, f)
                reason = _not_kodaira(config, f, m)
                if reason:
                    out.append(Violation("fibration", f.tag, f"not a Kodaira {f.type}: {reason}"))
                if m is not None:
                    weighted.append((f, m))
            out.extend(self._one_class(config, weighted))
        out.extend(self._shioda_tate(config.surface))
        doubles = sum(1 for f in self.fibers if f.multiplicity == 2)
        bound = config.surface.max_double_fibers
        if bound is not None and doubles > bound:
            out.append(Violation("fibration", "multiple-fibers", f"{doubles} multiplicity-2 "
                                 f"fibers declared; {'at most two' if bound else 'none'} exist"))
        return out

    def _shioda_tate(self, surface) -> list:
        """Shioda-Tate: the components of each fiber but one span a negative
        definite sublattice of F^perp / F, of rank rho - 2, so the sum over
        the fibers of (components of the type - 1) is at most rho_max - 2."""
        rho_max = surface.rho_max
        excess = sum(_fiber_numbers(f.type)[1] - 1 for f in self.fibers)
        if rho_max is None or excess <= rho_max - 2:
            return []
        return [Violation("fibration", "shioda-tate",
                          f"sum of (components - 1) over the fibers is {excess}, "
                          f"above rho_max - 2 = {rho_max - 2}")]

    def _one_class(self, config, weighted) -> list:
        """The fibers of one fibration share one numerical class: for every
        fully tracked fiber f with multiplicities m, f.multiplicity *
        sum m_i C_i pairs the same way with every curve.  Only the curves
        outside the fibers are compared: that every fiber class pairs 0 with
        the fibers' own curves is what the disjointness and Kodaira rules
        check.  Like the 2-section check, a curve's pairing with a fiber is
        read from the curve's row.  Each fiber that differs from the first
        one is reported once, at the first curve that tells them apart."""
        if len(weighted) < 2:
            return []
        inside = {c for f in self.fibers for c in f.components}
        outside = [(c.name, row) for c, row in zip(config.curves, config.pairing)
                   if c.name not in inside]

        def pairs(f, m):
            at = [config.position[c] for c in f.components]
            return [f.multiplicity * sum(map(mul, m, map(row.__getitem__, at)))
                    for _, row in outside]

        first = weighted[0][0]
        reference = pairs(*weighted[0])
        out = []
        for g, m in weighted[1:]:
            for (name, _), x, y in zip(outside, reference, pairs(g, m)):
                if x != y:
                    out.append(Violation(
                        "fibration", "fiber-class",
                        f"fibers {first.tag} and {g.tag} pair to {x} and {y} with "
                        f"{name}, so they are not one class"))
                    break
        return out

    def _meetings(self, config) -> list:
        """Distinct fibers are disjoint: a violation for each pair of
        components of two different fibers with a nonzero pairing.  Tags
        repeat, so the subject is the component pair and the detail names
        both fibers.  A component shared by two fibers is reported above."""
        out = []
        position, pairing = config.position, config.pairing
        for k, f in enumerate(self.fibers):
            for g in self.fibers[k + 1:]:
                for a in f.components:
                    row = pairing[position[a]]
                    for b in g.components:
                        value = row[position[b]]
                        if value and a != b:
                            out.append(Violation(
                                "fibration", f"{a}.{b}",
                                f"components of distinct fibers {f.tag} and {g.tag} "
                                f"pair to {value}, not 0"))
        return out


def _multiplicities(config, f) -> Optional[tuple[int, ...]]:
    """Kodaira's multiplicities of the components of fully tracked fiber f:
    all 1 when the type's largest is 1, else the positive primitive vector
    that spans the kernel of their pairing, or None when no such vector
    spans it."""
    if _fiber_numbers(f.type)[2] == 1:
        return (1,) * len(f.components)
    at = [config.position[c] for c in f.components]
    e = eliminate([[config.pairing[i][j] for j in at] for i in at])
    if e.rank == len(at) - 1 and min(e.relations[0]) > 0:
        return e.relations[0]
    return None


def _not_kodaira(config, f, m) -> Optional[str]:
    """Why fully tracked fiber f, which repeats no component, is not Kodaira's
    (module docstring), or None; m is ``_multiplicities(config, f)``."""
    at = [config.position[c] for c in f.components]
    single = len(at) == 1  # I1 or II
    for i in at:
        c = config.curves[i]
        if single and (c.genus, c.self_int) != (1, 0):
            return (f"{c.name} has genus {c.genus} and self-intersection {c.self_int}, "
                    f"not 1 and 0")
        if not single and (c.genus, c.self_int) != (0, -2):
            return f"{c.name} is not a smooth rational (-2)-curve"
    if m is None:
        return "the kernel of the components' pairing is not spanned by a positive vector"
    rows = [[config.pairing[i][j] for j in at] for i in at]
    for name, row in zip(f.components, rows):
        x = sum(map(mul, m, row))
        if x:
            return f"{name} pairs {x} with the fiber class, not 0"
    reached = [0]
    for i in reached:  # the list grows as the walk reaches components
        reached += [j for j, x in enumerate(rows[i]) if x and j not in reached]
    if len(reached) < len(at):
        return "the components are not connected"
    top = _fiber_numbers(f.type)[2]
    if max(m) != top:
        return f"the largest multiplicity is {max(m)}, not {top}"
    return None


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

    A 2-section meets the fiber class in degree 2, so it meets the
    components weighted by their multiplicities (``_multiplicities``) in
    total 2, or 1 for a multiplicity-2 fiber, whose reduced curve they are.
    Fibers with partial component lists are skipped (the data cannot
    decide), and so is a starred fiber whose pairing gives no multiplicities.
    """
    fib = config.fibration
    if fib is None or not fib.two_sections:
        return []
    tracked = [(f, m) for f in fib.fibers if f.is_fully_tracked()
               for m in [_multiplicities(config, f)] if m is not None]
    position = config.position
    out = []
    for s in fib.two_sections:
        row = config.pairing[position[s]]
        for f, m in tracked:
            total = sum([x * row[position[c]] for x, c in zip(m, f.components)])
            expected = 1 if f.multiplicity == 2 else 2
            if total != expected:
                out.append(Violation(
                    "two-section", f"{s}.{f.tag}",
                    f"total intersection {total}, expected {expected}"))
    return out


def i9_forces_i1_lint(fibration: Optional[FibrationData], surface) -> list[str]:
    """Advisory: an I9 (or 2I9) fiber should come with three I1-type fibers.

    Applies where the surface's ``i9_lint_applies`` (rho_max = 10, chi = 1):
    the I9 fills rho_max - 2 and leaves Euler number 3 to irreducible fibers.
    An under-declared configuration is flagged, not failed.
    """
    if fibration is None or not surface.i9_lint_applies:
        return []
    types = [f.type for f in fibration.fibers]
    n_i1 = types.count("I1")
    if "I9" not in types or n_i1 >= 3:
        return []
    return [f"an I9 fiber implies three I1-type fibers; only {n_i1} declared"]
