"""The verification pipeline: one stage order and one failure policy.

``run(doc)`` takes a parsed document through these stages, in order:

    base        validate the configuration as declared;
    fibration   Euler sum against 12*chi, 2-section incidence, I9 lint;
    blow-ups    replay the blow-up list once, keeping every stage;
    final       the point rules (``config.point_violations``) on the
                configuration after the last blow-up, when there is one;
    plan        build the smoothing report, when the document has a plan, and
                check the plan's smoothing hypothesis: the independence and
                SNC certificates on the configuration after its stage;
    corpus      when the document declares ``expect``: the corpus rules
                (Euler deficit 0, no advisory) and every expected value
                (``_expectation_failures``).

The final stage needs no other rule of ``validate``: ``blow_up`` keeps them
all on a valid base.  The surface and the fibration are the base's own
objects; each proper transform keeps adjunction, and the step's point rule
(genus >= m(m-1)/2 and m*m' <= the pairing) keeps the genus and the pairing
nonnegative; the pairing stays symmetric with the self-intersections on its
diagonal by construction; and the K-degree and enriques-rational rules apply
before blow-ups only.  The points themselves can still break the point
rules, as when a blow-up lowers a curve's genus below the budget of a second
node on it or a step through three curves lowers their pairings below the
crossings declared on them.

A document fails on base or final violations, a negative Euler deficit,
2-section violations, plan violations, a non-positive ampleness certificate,
a failed independence or SNC certificate and, when it declares ``expect``,
a value it does not reproduce.  A positive deficit (fibers left undeclared)
and the I9 advisory are reported, and fail only a document that declares
``expect``.  The blow-up and plan stages run only on a valid base
configuration.  A blow-up step that cannot be applied, a hypothesis naming
a curve absent at its stage and an SNC divisor whose crossings the points
do not declare are input errors and raise.

``RunResult.to_text`` and ``RunResult.to_json`` render a run as ``verify``
prints it; ``witness_fields`` and ``witness_lines``, which render the
independence certificate, are shared with ``example`` (``qgsurf.corpus``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .blowup import replay
from .config import (
    Configuration,
    Document,
    Expectation,
    IndependenceCertificate,
    SmoothingHypothesis,
    independence_certificate,
    point_violations,
    snc_certificate,
    validate,
)
from .errors import PlanInvalidError, UnknownCurveError, Violation
from .fibration import (
    EulerCheck,
    euler_sum_check,
    i9_forces_i1_lint,
    two_section_incidence_check,
)
from .smoothing import SingularSurfaceReport, build_report


class Failure(NamedTuple):
    """One reason a document fails, with the stage that found it."""

    stage: str
    message: str

    def __str__(self):
        return self.message


class RunResult(NamedTuple):
    """What one run found: failures, lint results, every stage, the report."""

    document: Document
    failures: tuple[Failure, ...]
    euler: Optional[EulerCheck]           # None without a fibration
    advisories: tuple[str, ...]
    stages: tuple[Configuration, ...]     # stages[k]: after k blow-ups; () if base invalid
    report: Optional[SingularSurfaceReport]
    independence: Optional[IndependenceCertificate] = None  # of plan.smoothing

    @property
    def final(self) -> Optional[Configuration]:
        return self.stages[-1] if self.stages else None

    @property
    def passed(self) -> bool:
        return not self.failures

    def failure_texts(self) -> list[str]:
        """Each failure as ``STAGE: MESSAGE``."""
        return [f"{f.stage}: {f}" for f in self.failures]

    def lint_lines(self) -> list[str]:
        """The Euler-sum line, when there is a fibration, and one line per advisory."""
        lines = []
        euler = self.euler
        if euler is not None:
            lines.append(
                f"euler_sum={euler.total} target={euler.target} deficit={euler.deficit}"
                + (f" note={euler.note}" if euler.note else ""))
        lines.extend(f"advisory={a}" for a in self.advisories)
        return lines

    def to_text(self) -> str:
        """The ``verify`` report: lints, witness, report, failures, status."""
        lines = self.lint_lines() + witness_lines(self.independence)
        if self.report is not None:
            lines.append(self.report.to_text())
        lines.extend(f"violation={f}" for f in self.failure_texts())
        lines.append(f"status={'pass' if self.passed else 'fail'}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The JSON form of ``to_text``."""
        return {
            "violations": self.failure_texts(),
            "lints": self.lint_lines(),
            **witness_fields(self.independence),
            "report": None if self.report is None else self.report.to_json(),
            "status": "pass" if self.passed else "fail",
        }


def witness_fields(cert: Optional[IndependenceCertificate]) -> dict:
    """The independence certificate's rank and witness, rows and columns named
    by curve; every field is None without a certificate."""
    if cert is None:
        return dict.fromkeys(("independence_rank", "independence_pivots",
                              "independence_minor", "independence_relation"))
    w = cert.witness
    return {
        "independence_rank": cert.rank,
        "independence_pivots": {"rows": [cert.candidates[i] for i in w.pivot_rows],
                                "columns": [cert.columns[j] for j in w.pivot_cols]},
        "independence_minor": w.minor,
        "independence_relation": [
            {name: c for name, c in zip(cert.candidates, relation) if c}
            for relation in w.relations],
    }


def relation_text(coeffs: dict) -> str:
    """A relation {curve: coefficient} as text, such as ``3*S1-2*S2+G1``."""
    terms = "".join(("-" if c < 0 else "+") + ("" if abs(c) == 1 else f"{abs(c)}*") + name
                    for name, c in coeffs.items())
    return terms.removeprefix("+")


def witness_lines(cert: Optional[IndependenceCertificate]) -> list[str]:
    """The text form of ``witness_fields``: no line without a certificate."""
    if cert is None:
        return []
    fields = witness_fields(cert)
    pivots = fields["independence_pivots"]
    return [f"independence_rank={cert.rank}",
            f"independence_pivots={','.join(pivots['rows'])} x {','.join(pivots['columns'])}",
            f"independence_minor={fields['independence_minor']}",
            *(f"independence_relation={relation_text(coeffs)}"
              for coeffs in fields["independence_relation"])]


def _smoothing_failures(stages: tuple[Configuration, ...], hypothesis: SmoothingHypothesis):
    """The independence certificate at the hypothesis' stage and the plan
    failures of both certificates."""
    stage = stages[hypothesis.stage]
    for name in hypothesis.independent + hypothesis.snc:
        if name not in stage.position:
            raise UnknownCurveError(f"plan.smoothing references curve {name!r}, "
                                    f"absent after {hypothesis.stage} blow-up(s)")
    cert = independence_certificate(stage, hypothesis.independent)
    violations = [] if cert.verdict else [Violation(
        "independence", "plan.smoothing",
        f"rank {cert.rank} < {len(cert.candidates)} curves after {hypothesis.stage} blow-up(s)")]
    violations.extend(snc_certificate(stage, hypothesis.snc))
    return cert, [Failure("plan", str(v)) for v in violations]


def _expectation_failures(result: RunResult, expect: Expectation) -> list[str]:
    """What a run breaks of the corpus rules and of the declared values:
    the fibers must sum to exactly 12*chi with no advisory, the chains match
    as a multiset and the indices in plan order."""
    failures = []
    euler = result.euler
    if euler is not None and euler.deficit != 0:
        failures.append(f"euler sum {euler.total} != {euler.target}")
    failures.extend(f"advisory: {a}" for a in result.advisories)

    final = result.final
    if final is not None and final.blowup_count != expect.blowups:
        failures.append(f"blowup count {final.blowup_count} != {expect.blowups}")

    report = result.report
    if report is not None:
        if report.K2_X != expect.K2:
            failures.append(f"K2 {report.K2_X} != {expect.K2}")
        if sorted(report.chains) != sorted(expect.chains):
            failures.append(f"chains {report.chains} != expected")
        if report.indices != expect.indices:
            failures.append(f"indices {report.indices} != {expect.indices}")
        if report.gcd_indices != expect.gcd:
            failures.append(f"gcd {report.gcd_indices} != {expect.gcd}")
        if report.pi1_verdict != expect.pi1:
            failures.append(f"pi1 {report.pi1_verdict} != {expect.pi1}")
        if report.moduli_dim != expect.moduli_dim:
            failures.append(f"moduli {report.moduli_dim} != {expect.moduli_dim}")
        if report.p_g != expect.p_g:
            failures.append(f"p_g {report.p_g} != {expect.p_g}")
    elif result.document.plan is None:
        failures.append("no plan to check the expected values against")
    return failures


def run(doc: Document) -> RunResult:
    base = doc.configuration
    failures = [Failure("base", str(v)) for v in validate(base)]
    base_valid = not failures

    euler, advisories = None, ()
    if base.fibration is not None:
        euler = euler_sum_check(base.fibration, base.surface.chi)
        if euler.deficit < 0:
            failures.append(Failure("fibration", euler.note))
        failures.extend(Failure("fibration", str(v)) for v in two_section_incidence_check(base))
        advisories = tuple(i9_forces_i1_lint(base.fibration, base.surface))

    stages, report, independence = (), None, None
    if base_valid:
        stages = replay(base, doc.blowups)
        final = stages[-1]
        if doc.blowups:
            failures.extend(Failure("final", str(v))
                            for v in point_violations(final, final.points))
        if doc.plan is not None:
            try:
                report = build_report(final, doc.plan)
            except PlanInvalidError as exc:
                failures.extend(Failure("plan", str(v)) for v in exc.violations)
            else:
                if not report.ample.verdict:
                    failures.append(Failure(
                        "plan", "ampleness certificate has a non-positive entry"))
            if doc.plan.smoothing is not None:
                independence, cert_failures = _smoothing_failures(stages, doc.plan.smoothing)
                failures.extend(cert_failures)

    result = RunResult(document=doc, failures=tuple(failures), euler=euler,
                       advisories=advisories, stages=stages, report=report,
                       independence=independence)
    if doc.expect is not None:
        result = result._replace(failures=result.failures + tuple(
            Failure("corpus", m) for m in _expectation_failures(result, doc.expect)))
    return result
