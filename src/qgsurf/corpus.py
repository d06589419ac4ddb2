"""Built-in example documents and the one-call verification harness.

Six constructions ship with the package, named

    enriques-k1, enriques-k2, enriques-k3-kondo2, enriques-k3-kondo7,
    enriques-k4, enriques-k5-symplectic.

Each pairs a JSON document (configuration + blow-ups + contraction plan with
its smoothing hypothesis) with the externally known values it must
reproduce.  ``verify_example`` runs the verification pipeline
(``qgsurf.pipeline``) and returns its ``RunResult``, with every broken
expectation added as a failure of the ``corpus`` stage, so an example passes
or fails by the same ``RunResult.passed`` as ``verify`` on the same document.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from . import config as config_mod
from . import pipeline
from .errors import UnknownExampleError


class Expected(NamedTuple):
    K2: int
    blowup_count: int
    chains: tuple[tuple[int, ...], ...]   # multiset, stored sorted
    indices: tuple[int, ...]              # in plan order
    gcd: int
    pi1: str
    moduli_dim: int
    p_g: int


def _chain_multiset(chains):
    return tuple(sorted(tuple(c) for c in chains))


EXPECTED: dict[str, Expected] = {
    "enriques-k1": Expected(
        K2=1, blowup_count=5,
        chains=_chain_multiset([(4, 2, 3, 2), (4, 2, 3, 2), (4,), (4,)]),
        indices=(3, 3, 2, 2), gcd=1, pi1="criterion-satisfied",
        moduli_dim=8, p_g=0,
    ),
    "enriques-k2": Expected(
        K2=2, blowup_count=7,
        chains=_chain_multiset([(6, 2, 2), (7, 3, 2, 2, 2, 2), (3, 3)]),
        indices=(4, 6, 2), gcd=2, pi1="inconclusive",
        moduli_dim=6, p_g=0,
    ),
    "enriques-k3-kondo2": Expected(
        K2=3, blowup_count=12,
        chains=_chain_multiset([(5, 2), (9, 2, 2, 2, 2, 2), (2, 9, 2, 2, 2, 2, 3)]),
        indices=(3, 7, 13), gcd=1, pi1="criterion-satisfied",
        moduli_dim=4, p_g=0,
    ),
    "enriques-k3-kondo7": Expected(
        K2=3, blowup_count=10,
        chains=_chain_multiset([(5, 2), (9, 2, 2, 2, 2, 2), (8, 2, 2, 2, 2)]),
        indices=(3, 7, 6), gcd=1, pi1="criterion-satisfied",
        moduli_dim=4, p_g=0,
    ),
    "enriques-k4": Expected(
        K2=4, blowup_count=15,
        chains=_chain_multiset([(2, 2, 9, 2, 2, 2, 2, 4),
                                (2, 2, 7, 6, 2, 3, 2, 2, 2, 2, 4)]),
        indices=(19, 73), gcd=1, pi1="criterion-satisfied",
        moduli_dim=2, p_g=0,
    ),
    "enriques-k5-symplectic": Expected(
        K2=5, blowup_count=12,
        chains=_chain_multiset([(6, 2, 2),
                                (5, 8, 6, 2, 3, 2, 2, 2, 2, 2, 3, 2, 2, 2)]),
        indices=(4, 151), gcd=1, pi1="criterion-satisfied",
        moduli_dim=0, p_g=0,
    ),
}

EXAMPLE_NAMES = tuple(EXPECTED)


class NamedExample(NamedTuple):
    name: str
    document: dict
    expected: Expected


def builtin(name: str) -> NamedExample:
    """Load a shipped example by name; its JSON is decoded as ``verify``
    decodes a file, so a repeated key is the same SchemaError."""
    if name not in EXAMPLE_NAMES:
        raise UnknownExampleError(
            f"unknown example {name!r}; known: {', '.join(EXAMPLE_NAMES)}")
    data = resources.files("qgsurf").joinpath(f"corpus_data/{name}.json").read_text()
    document = json.loads(data, object_pairs_hook=config_mod._unique_keys)
    return NamedExample(name=name, document=document, expected=EXPECTED[name])


def verify_example(name: str) -> pipeline.RunResult:
    """The verification pipeline on one example, diffed against its expectations.

    The result is the pipeline's own, its failures followed by one
    ``corpus``-stage failure for each rule a shipped document breaks: it
    must sum its fibers to exactly 12*chi, raise no advisory and reproduce
    every expected value.
    """
    example = builtin(name)
    expected = example.expected
    result = pipeline.run(config_mod.parse_unvalidated(example.document))
    failures = []

    euler = result.euler
    if euler is not None and euler.deficit != 0:
        failures.append(f"euler sum {euler.total} != {euler.target}")
    failures.extend(f"advisory: {a}" for a in result.advisories)

    final = result.final
    if final is not None and final.blowup_count != expected.blowup_count:
        failures.append(f"blowup count {final.blowup_count} != {expected.blowup_count}")

    report = result.report
    if report is not None:
        if report.K2_X != Fraction(expected.K2):
            failures.append(f"K2 {report.K2_X} != {expected.K2}")
        if _chain_multiset(report.chains) != expected.chains:
            failures.append(f"chains {report.chains} != expected")
        if report.indices != expected.indices:
            failures.append(f"indices {report.indices} != {expected.indices}")
        if report.gcd_indices != expected.gcd:
            failures.append(f"gcd {report.gcd_indices} != {expected.gcd}")
        if report.pi1_verdict != expected.pi1:
            failures.append(f"pi1 {report.pi1_verdict} != {expected.pi1}")
        if report.moduli_dim != expected.moduli_dim:
            failures.append(f"moduli {report.moduli_dim} != {expected.moduli_dim}")
        if report.p_g != expected.p_g:
            failures.append(f"p_g {report.p_g} != {expected.p_g}")

    return result._replace(failures=result.failures + tuple(
        pipeline.Failure("corpus", m) for m in failures))


def verify_all() -> list[pipeline.RunResult]:
    """Verify every shipped example; results in canonical name order."""
    return [verify_example(name) for name in EXAMPLE_NAMES]


def results_table(results) -> str:
    """Fixed-width summary, one row per example."""
    header = f"{'example':24} {'K2':>3} {'indices':16} {'gcd':>3} {'pi1':22} {'ample':6} {'status':6}"
    lines = [header]
    for r in results:
        if r.report is not None:
            k2 = str(r.report.K2_X)
            indices = ",".join(str(i) for i in r.report.indices)
            gcd_s = str(r.report.gcd_indices)
            pi1 = r.report.pi1_verdict
            ample = "pos" if r.report.ample.verdict else "NEG"
        else:
            k2 = indices = gcd_s = pi1 = ample = "-"
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.document.name:24} {k2:>3} {indices:16} {gcd_s:>3} {pi1:22} {ample:6} {status:6}")
    return "\n".join(lines)
