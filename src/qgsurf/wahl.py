"""Linear chain analytics.

A chain [b1,...,bl] records the negated self-intersections of a linear chain
of smooth rational curves (bi >= 2, consecutive curves meeting once).  This
module evaluates its minus continued fraction, recognizes the chains whose
contraction admits a rational one-parameter smoothing (cyclic quotient of
order d*n^2 with rotation d*n*a - 1), generates that family recursively as an
independent oracle, and computes the discrepancies and the contraction's
contribution to the selfintersection of the canonical class.

Every one of these invariants is read off one integer summary,
``summarize(chain)``: the chain is validated once and the continuant
recurrence (x_0 = 1, x_k = b * x_{k-1} - x_{k-2}) runs once from each end,
giving L_k and R_k, the continuants of the first and of the last k entries.
With r the length and m = L_r = R_r:

    hj value       m / R_{r-1}, already in lowest terms (consecutive
                   continuants are coprime);
    class T        d*n = gcd(m, R_{r-1} + 1), see ``recognize_class_T``;
    discrepancies  a_i = (L_{i-1} + R_{r-i} - m) / m  (Hirzebruch-Jung);
    contribution   -sum a_i (b_i - 2).

The left pass keeps its continuants; the right pass keeps none, and forms
each numerator L_{i-1} + R_{r-i} - m and adds up the contribution times m
as it goes, so the summary holds both as integer fields.  ``hj_value``,
``recognize_class_T``, ``discrepancies`` and ``k2_contribution`` are views
over that summary.  The exact Gaussian solve of
Gram . a = (b_i - 2) over Fractions is kept outside the package, as the
tests' oracle for the discrepancy formula.

A Fraction is built only where one is returned, by the summary's ``value``,
``discrepancies`` and ``contribution``; the reports that format through
``fraction_text`` never import ``fractions``.
"""

from __future__ import annotations

import importlib
from math import gcd
from operator import index as _integer
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidFractionError, NotClassTError

if TYPE_CHECKING:
    from fractions import Fraction

Chain = tuple[int, ...]


def as_chain(entries) -> Chain:
    """The entries as a tuple of ints; ValueError unless every entry is an
    integer (``operator.index``: no float, string or Fraction is rounded or
    parsed) >= 2."""
    chain = tuple(entries)
    try:
        chain = tuple(map(_integer, chain))
    except TypeError:
        for position, entry in enumerate(chain, 1):
            try:
                _integer(entry)
            except TypeError:
                raise ValueError(f"entry {position} is not an integer: {entry!r}") from None
    if not chain:
        raise ValueError("a chain needs at least one entry")
    if min(chain) < 2:
        raise ValueError("chain entries must all be >= 2")
    return chain


class ClassTData(NamedTuple):
    """Recognized singularity data for a contractible chain.

    The contracted point is the cyclic quotient of order m = d*n^2 with
    rotation q = d*n*a - 1; its index (least r with r*K Cartier) is n.
    """

    d: int
    n: int
    a: int

    @property
    def m(self) -> int:
        return self.d * self.n * self.n

    @property
    def q(self) -> int:
        return self.d * self.n * self.a - 1

    @property
    def index(self) -> int:
        return self.n


def _continuants(chain) -> list[int]:
    """[x_0, ..., x_r] with x_0 = 1 and x_k = b_k * x_{k-1} - x_{k-2}."""
    xs = [1]
    prev, cur = 0, 1
    for b in chain:
        prev, cur = cur, b * cur - prev
        xs.append(cur)
    return xs


class ChainSummary(NamedTuple):
    """One chain's invariants as integers, from ``summarize``.

    m = L_r and q = R_{r-1} are the coprime numerator and denominator of the
    hj value; ``numerators`` holds L_{i-1} + R_{r-i} - m, the discrepancies
    times m, and ``contribution_numerator`` the contraction's K^2
    contribution times m, -sum x_i (b_i - 2) over those numerators.
    """

    chain: Chain
    m: int
    q: int
    class_t: ClassTData | None
    numerators: tuple[int, ...]
    contribution_numerator: int

    @property
    def value(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.m, self.q)

    @property
    def discrepancies(self) -> tuple[Fraction, ...]:
        from fractions import Fraction
        return tuple(Fraction(x, self.m) for x in self.numerators)

    @property
    def contribution(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.contribution_numerator, self.m)


def _class_t(m: int, q: int) -> ClassTData | None:
    """(d, n, a) with m/q = (d*n^2)/(d*n*a - 1), or None.

    Any solution has d*n = gcd(m, q+1), which makes (d, n, a) unique; du Val
    chains (n = 1) are rejected.
    """
    g = gcd(m, q + 1)
    n = m // g
    a = (q + 1) // g
    if n >= 2 and a < n and g % n == 0:
        return ClassTData(g // n, n, a)
    return None


def summarize(entries) -> ChainSummary:
    """Validate the chain once and run the continuants once from each end.

    The right-to-left pass steps R_{r-i} alongside the stored L_{i-1}, so it
    forms the numerators and their contribution without a second list.
    """
    chain = as_chain(entries)
    left = _continuants(chain)
    m = left[-1]
    numerators = [0] * len(chain)
    prev, cur, contribution = 0, 1, 0  # cur = R_{r-1-i} at entry i (from 0)
    for i in range(len(chain) - 1, -1, -1):
        b = chain[i]
        x = left[i] + cur - m
        numerators[i] = x
        contribution -= x * (b - 2)
        prev, cur = cur, b * cur - prev
    # cur = R_r = m, prev = R_{r-1} = q
    return ChainSummary(chain, m, prev, _class_t(m, prev), tuple(numerators), contribution)


def fraction_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den >= 1, without building the Fraction."""
    g = gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


def hj_value(entries) -> Fraction:
    """Value of b1 - 1/(b2 - 1/(... - 1/bl)) in lowest terms."""
    return summarize(entries).value


def chain_from_fraction(m: int, q: int) -> Chain:
    """The unique chain with hj_value = m/q (m > q >= 1, coprime)."""
    if q < 1 or m <= q or gcd(m, q) != 1:
        raise InvalidFractionError(f"need m > q >= 1 coprime, got {m}/{q}")
    digits = []
    while q > 0:
        b = -(-m // q)
        digits.append(b)
        m, q = q, b * q - m
    return tuple(digits)


def recognize_class_T(entries) -> ClassTData | None:
    """Accept iff hj_value = (d*n^2)/(d*n*a - 1) for some valid (d, n, a)."""
    return summarize(entries).class_t


def index(entries) -> int:
    """Index of the contracted singular point (the n of the recognizer)."""
    summary = summarize(entries)
    if summary.class_t is None:
        raise NotClassTError(f"chain {summary.chain} is not of the smoothable family")
    return summary.class_t.index


def _seeds(max_len: int, max_entry: int):
    if max_entry >= 4:
        yield (4,)
    if max_entry >= 3:
        for d in range(2, max_len + 1):
            yield (3,) + (2,) * (d - 2) + (3,)


def generate_class_T(max_len: int, max_entry: int) -> set[Chain]:
    """All smoothable chains within bounds, by recursive generation.

    Closure of the seeds [4] and [3,2,...,2,3] under the two growth steps
    [b1,...,bl] -> [b1+1,...,bl,2] and [2,b1,...,bl+1], deduplicated.  This
    is the independent oracle against which the arithmetic recognizer is
    cross-validated.
    """
    if max_len < 1 or max_entry < 1:
        raise ValueError("bounds must be >= 1")
    found: set[Chain] = set()
    frontier = [s for s in _seeds(max_len, max_entry) if len(s) <= max_len]
    found.update(frontier)
    while frontier:
        fresh = []
        for chain in frontier:
            if len(chain) + 1 > max_len:
                continue
            left = (chain[0] + 1,) + chain[1:] + (2,)
            right = (2,) + chain[:-1] + (chain[-1] + 1,)
            for child in (left, right):
                if max(child) <= max_entry and child not in found:
                    found.add(child)
                    fresh.append(child)
        frontier = fresh
    return found


def canonical_order(chains) -> list[Chain]:
    """Stable listing order: by length, then lexicographically.

    Python's sort is stable, so sorting the lexicographic order by length
    alone gives that order without a key tuple per chain."""
    return sorted(sorted(chains), key=len)


def discrepancies(entries) -> tuple[Fraction, ...]:
    """Coefficients a with Gram . a = (b1-2, ..., bl-2), in closed form.

    a_i = -1 + (L_{i-1} + R_{r-i}) / m from the continuants of the chain's
    ends (see the module docstring); m >= 2 since every entry is >= 2, and
    the chain Gram matrix is negative definite, so this is the unique
    solution.  A Gaussian solve of that system over Fractions is its oracle
    in the tests.  For smoothable chains every coefficient lies
    in (-1, 0).
    """
    return summarize(entries).discrepancies


def k2_contribution(entries) -> Fraction:
    """Gain of the canonical self-intersection when the chain is contracted.

    Equals -a . k for a = discrepancies, k = (b1-2, ..., bl-2), computed as
    -sum (L_{i-1} + R_{r-i} - m)(b_i - 2) / m from the integer continuants;
    nonnegative, and equal to l + 1 - d on recognized chains.
    """
    return summarize(entries).contribution


def exhaustive_scan(max_len: int, max_entry: int):
    """Kernel-backed scan of every chain within bounds.

    Returns (total, accepted, negdef_failures, roundtrip_failures): the
    number of chains visited, the recognizer-accepted ones (lexicographic
    order), and the counts of chains whose determinant lacks the sign
    (-1)**l of a negative definite matrix and of chains whose continued
    fraction does not round-trip (both 0 unless something is deeply
    wrong).  The first count takes one determinant per length, of the chain
    [2]*l: raising an entry bi changes det by -det(b1..b(i-1)) *
    det(b(i+1)..bl), so while every shorter chain passes, (-1)**l * det
    grows with every entry and is least at [2]*l (``qgsurf.kernel`` gives
    the proof).  The
    kernel is imported here, so the other subcommands never load it.
    """
    return importlib.import_module(".kernel", __package__).scan_chains(max_len, max_entry)
