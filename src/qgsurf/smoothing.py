"""Contraction plans and the invariants of the contracted surface.

Contracting the plan's linear chains produces a normal surface X with one
cyclic quotient point per chain; a one-parameter smoothing with Q-Cartier
canonical class has general fiber X_t with

    K^2(X_t) = K^2(ambient) + sum of per-chain contributions,
    chi(O)   = chi(O) of the ambient  (both conserved under blow-up),
    p_g      = chi - 1 + q.

The ampleness certificate evaluates (f* K_X).C = K.C + sum_p D_p.C for every
non-contracted curve with the exact discrepancy divisors D_p; positivity on
the tracked model is necessary but deliberately partial (curves outside the
model need geometric arguments the data cannot see).

``build_report`` is the one pass over a plan: ``_check_plan`` validates it
and summarizes each chain once (``wahl.summarize``), and K^2, the indices
and their gcd, the pi_1 verdict, the ampleness entries, the moduli
dimension and the topology are all read from those summaries.  The public
plan functions (``contract_invariants``, ``pi1_criterion``,
``ampleness_certificate``) return views of that report.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .config import Configuration, ContractionPlan
from .errors import DomainError, PlanInvalidError, Violation
from .wahl import ChainSummary, summarize

PI1_SATISFIED = "criterion-satisfied"
PI1_INCONCLUSIVE = "inconclusive"


def validate_plan(config: Configuration, plan: ContractionPlan) -> list[Violation]:
    """All violations of the contraction plan against the configuration.

    Checks: names resolve, chains are pairwise disjoint curve sets, every
    chain is a genuine linear chain of rational curves with entries <= -2
    (consecutive pairing 1, nonconsecutive 0), each chain is accepted by
    the smoothability recognizer, the declared q is the surface's ``q``
    where that is not None, and p_g = chi - 1 + q is not negative.
    """
    return _check_plan(config, plan)[0]


def _check_plan(config: Configuration, plan: ContractionPlan
                ) -> tuple[list[Violation], list[Optional[ChainSummary]]]:
    """The plan's violations, and each chain's summary (None where the
    chain's names or shape were already violated)."""
    out: list[Violation] = []
    summaries: list[Optional[ChainSummary]] = []
    seen: dict[str, int] = {}
    position = config.position.get
    curves, pairing = config.curves, config.pairing
    for ci, chain in enumerate(plan.chains):
        label = f"chain{ci}"
        start = len(out)  # every violation from here on is this chain's
        ids = list(map(position, chain))
        for name, i in zip(chain, ids):
            if i is None:
                out.append(Violation("plan-name", label, f"unknown curve {name!r}"))
                continue
            if name in seen:
                out.append(Violation("plan-overlap", label,
                                     f"{name} already in chain{seen[name]}"))
            seen[name] = ci
        if None in ids:
            summaries.append(None)
            continue
        for name, i in zip(chain, ids):
            curve = curves[i]
            if curve.genus != 0:
                out.append(Violation("plan-genus", label,
                                     f"{name} has genus {curve.genus}; chains are rational"))
            if curve.self_int > -2:
                out.append(Violation("plan-self", label,
                                     f"{name} has self-intersection {curve.self_int} > -2"))
        for i, a in enumerate(ids):
            row = pairing[a]
            for j in range(i + 1, len(ids)):
                want = 1 if j == i + 1 else 0
                got = row[ids[j]]
                if got != want:
                    out.append(Violation(
                        "plan-shape", label,
                        f"{chain[i]}.{chain[j]} = {got}, expected {want}"))
        summary = None
        if len(out) == start:
            summary = summarize(tuple(-curves[i].self_int for i in ids))
            if summary.class_t is None:
                out.append(Violation("plan-smoothability", label,
                                     f"chain {list(summary.chain)} is not smoothable"))
        summaries.append(summary)
    if config.surface.q is not None and plan.declared_q != config.surface.q:
        # q(X_t) <= q(Y) by semicontinuity, as the singularities are rational
        out.append(Violation("plan-q", "plan.q", f"declared q = {plan.declared_q}, but kind "
                             f"{config.surface.kind!r} has q = {config.surface.q}"))
    chi = config.surface.chi
    if chi - 1 + plan.declared_q < 0:
        # p_g = h^0(K) >= 0, so no surface has chi - 1 + q < 0
        out.append(Violation("plan-q", "plan.q",
                             f"p_g = chi - 1 + q = {chi} - 1 + {plan.declared_q}"
                             f" = {chi - 1 + plan.declared_q}, but p_g >= 0"))
    return out, summaries


def contract_invariants(config: Configuration, plan: ContractionPlan):
    """(K^2 of X_t, chi, p_g); requires a violation-free plan."""
    report = build_report(config, plan)
    return report.K2_X, report.chi, report.p_g


class AmpleEntry(NamedTuple):
    curve: str
    K_deg: int
    dp_term: Fraction
    value: Fraction


class AmplenessCertificate(NamedTuple):
    """Positivity of the pulled-back canonical class on every tracked,
    non-contracted curve.  PARTIAL by construction: curves outside the
    tracked model are not (and cannot be) covered by the data."""

    entries: tuple[AmpleEntry, ...]
    verdict: bool
    scope: str = "PARTIAL: tracked model curves only"


def ampleness_certificate(config: Configuration, plan: ContractionPlan) -> AmplenessCertificate:
    """The report's ampleness certificate; requires a violation-free plan."""
    return build_report(config, plan).ample


class Pi1Criterion(NamedTuple):
    indices: tuple[int, ...]
    gcd: int
    verdict: str


def pi1_criterion(config: Configuration, plan: ContractionPlan) -> Pi1Criterion:
    """Index-coprimality criterion for the fundamental group.

    Where the surface's ``pi1_criterion_applies`` holds, coprime singularity
    indices (gcd 1 over the multiset) certify the criterion; anything else
    is inconclusive and left to non-computational arguments.
    """
    report = build_report(config, plan)
    return Pi1Criterion(indices=report.indices, gcd=report.gcd_indices,
                        verdict=report.pi1_verdict)


def moduli_dimension(chi: int, K2: int) -> int:
    """Expected dimension of the smoothing's deformation space: 10*chi - 2*K^2."""
    return 10 * chi - 2 * K2


class TopologyReport(NamedTuple):
    K2: int
    c2: int
    b2plus: int
    b2minus: int
    cover_chi: Optional[int] = None
    cover_c1sq: Optional[int] = None
    cover_c2: Optional[int] = None
    cover_b2plus: Optional[int] = None
    cover_b2minus: Optional[int] = None
    cover_sigma: Optional[int] = None
    sigma_divisible_by_16: Optional[bool] = None
    homeomorphism_target: Optional[str] = None


def topology_report(K2: int, chi: int, pi1_is_Z2: bool, q: int = 0) -> TopologyReport:
    """Topological invariants of the smoothing (chi = 1 surfaces only).

    The surface itself has c2 = 12 - K^2 (Noether), b1 = 2q,
    b2 = c2 - 2 + 2*b1 and b2+ = 2*p_g + 1 with p_g = q; for q = 0 these
    are b2+ = 1 and b2- = 9 - K^2.  When the fundamental group is Z/2 (so
    q = 0), the universal double cover has chi 2, c1^2 = 2K^2,
    c2 = 24 - 2K^2, b2+ = 3, b2- = 19 - 2K^2 and signature 2K^2 - 16;
    |sigma| not divisible by 16 forces an odd intersection form, hence the
    homeomorphism type 3CP2 # (19-2k) CP2bar.
    """
    if chi != 1:
        raise DomainError(f"topology report requires chi = 1, got {chi}")
    if pi1_is_Z2 and q != 0:
        raise DomainError(f"fundamental group Z/2 requires q = 0, got q = {q}")
    c2, b1 = 12 - K2, 2 * q
    b2 = c2 - 2 + 2 * b1  # c2 = 2 - 2*b1 + b2, the Euler number
    b2plus = 2 * q + 1
    base = dict(K2=K2, c2=c2, b2plus=b2plus, b2minus=b2 - b2plus)
    if not pi1_is_Z2:
        return TopologyReport(**base)
    sigma = 2 * K2 - 16
    return TopologyReport(
        **base,
        cover_chi=2,
        cover_c1sq=2 * K2,
        cover_c2=24 - 2 * K2,
        cover_b2plus=3,
        cover_b2minus=19 - 2 * K2,
        cover_sigma=sigma,
        sigma_divisible_by_16=(abs(sigma) % 16 == 0),
        homeomorphism_target=f"3CP2#{19 - 2 * K2}CP2bar",
    )


class SingularSurfaceReport(NamedTuple):
    """Everything the pipeline knows about X and its smoothing X_t."""

    K2_X: Fraction
    chi: int
    p_g: int
    q: int
    chains: tuple[tuple[int, ...], ...]
    indices: tuple[int, ...]
    gcd_indices: int
    pi1_verdict: str
    ample: AmplenessCertificate
    moduli_dim: Optional[int]
    general_type: bool
    topology: Optional[TopologyReport]
    assumptions: tuple[str, ...] = ()
    blowup_count: int = 0

    def to_json(self) -> dict:
        return {
            "K2_X": str(self.K2_X),
            "chi": self.chi,
            "p_g": self.p_g,
            "q": self.q,
            "blowups": self.blowup_count,
            "chains": [list(c) for c in self.chains],
            "indices": list(self.indices),
            "gcd_indices": self.gcd_indices,
            "pi1": self.pi1_verdict,
            "ample": {
                "verdict": self.ample.verdict,
                "scope": self.ample.scope,
                "entries": [
                    {"curve": e.curve, "Kdeg": e.K_deg, "dp": str(e.dp_term),
                     "value": str(e.value)}
                    for e in self.ample.entries
                ],
            },
            "moduli_dim": self.moduli_dim,
            "general_type": self.general_type,
            "topology": None if self.topology is None else {
                "c2": self.topology.c2,
                "b2plus": self.topology.b2plus,
                "b2minus": self.topology.b2minus,
                "cover_c2": self.topology.cover_c2,
                "cover_b2plus": self.topology.cover_b2plus,
                "cover_b2minus": self.topology.cover_b2minus,
                "cover_sigma": self.topology.cover_sigma,
                "sigma_divisible_by_16": self.topology.sigma_divisible_by_16,
                "homeomorphism_target": self.topology.homeomorphism_target,
            },
            "assumptions": list(self.assumptions),
        }

    def to_text(self) -> str:
        lines = [
            f"K2_X={self.K2_X}",
            f"chi={self.chi}",
            f"p_g={self.p_g}",
            f"q={self.q}",
            f"blowups={self.blowup_count}",
            "chains=" + ";".join(",".join(str(b) for b in c) for c in self.chains),
            "indices=" + ",".join(str(i) for i in self.indices),
            f"gcd_indices={self.gcd_indices}",
            f"pi1={self.pi1_verdict}",
            f"ample={'positive' if self.ample.verdict else 'not-positive'} [{self.ample.scope}]",
        ]
        for e in self.ample.entries:
            lines.append(f"ample.{e.curve}={e.value} dp={e.dp_term}")
        lines.append(f"moduli_dim={self.moduli_dim}")
        lines.append(f"general_type={'yes' if self.general_type else 'no'}")
        if self.topology is not None:
            t = self.topology
            lines.append(f"topology.c2={t.c2} b2plus={t.b2plus} b2minus={t.b2minus}")
            if t.cover_sigma is not None:
                lines.append(
                    f"topology.cover c2={t.cover_c2} b2plus={t.cover_b2plus} "
                    f"b2minus={t.cover_b2minus} sigma={t.cover_sigma} "
                    f"sigma_div16={'yes' if t.sigma_divisible_by_16 else 'no'} "
                    f"target={t.homeomorphism_target}")
        for a in self.assumptions:
            lines.append(f"assumption={a}")
        return "\n".join(lines)


def build_report(config: Configuration, plan: ContractionPlan) -> SingularSurfaceReport:
    """Every verdict for a plan, from one validation pass and one summary
    per chain; PlanInvalidError if the plan has violations."""
    violations, summaries = _check_plan(config, plan)
    if violations:
        raise PlanInvalidError(violations)
    # K^2 and every (f* K_X).C below are read over the common denominator M
    # of the chains, as integers, and each builds one Fraction
    denominator = lcm(*(s.m for s in summaries))
    k2 = Fraction(config.ambient_K2 * denominator
                  + sum([s.contribution_numerator * (denominator // s.m) for s in summaries]),
                  denominator)
    chi = config.surface.chi
    indices = tuple(s.class_t.index for s in summaries)
    g = gcd(*indices)
    pi1 = PI1_SATISFIED if g == 1 and config.surface.pi1_criterion_applies else PI1_INCONCLUSIVE

    # (f* K_X).C = K.C - sum over chain curves E of a_E (E.C), a_E = x_E / m:
    # M times the sum is the integer sum of (M / m) x_E (E.C)
    coefficients, rows = [], []
    for names, s in zip(plan.chains, summaries):
        scale = denominator // s.m
        for name, x in zip(names, s.numerators):
            coefficients.append(scale * x)
            rows.append(config.pairing[config.position[name]])
    totals = ([sum(map(mul, coefficients, column)) for column in zip(*rows)] if rows
              else [0] * len(config.curves))
    contracted = {name for chain in plan.chains for name in chain}
    ample_entries, values = [], []  # values: M times each (f* K_X).C
    for c, total in zip(config.curves, totals):
        if c.name not in contracted:
            value = c.K_deg * denominator - total
            values.append(value)
            ample_entries.append(AmpleEntry(c.name, c.K_deg, Fraction(-total, denominator),
                                            Fraction(value, denominator)))
    ample = AmplenessCertificate(entries=tuple(ample_entries),
                                 verdict=min(values, default=1) > 0)

    integral = k2.denominator == 1
    return SingularSurfaceReport(
        K2_X=k2,
        chi=chi,
        p_g=chi - 1 + plan.declared_q,
        q=plan.declared_q,
        chains=tuple(s.chain for s in summaries),
        indices=indices,
        gcd_indices=g,
        pi1_verdict=pi1,
        ample=ample,
        moduli_dim=moduli_dimension(chi, int(k2)) if integral else None,
        general_type=bool(k2 > 0 and ample.verdict),
        topology=(topology_report(int(k2), chi, pi1_is_Z2=(pi1 == PI1_SATISFIED),
                                  q=plan.declared_q)
                  if integral and chi == 1 else None),
        assumptions=plan.assumptions,
        blowup_count=config.blowup_count,
    )
