"""Built-in example documents and the one-call verification harness.

Six constructions ship with the package, named

    enriques-k1, enriques-k2, enriques-k3-kondo2, enriques-k3-kondo7,
    enriques-k4, enriques-k5-symplectic.

Each is a JSON document (configuration + blow-ups + contraction plan with
its smoothing hypothesis) whose ``expect`` section holds the externally
known values it must reproduce.  ``verify_example`` runs the verification
pipeline (``qgsurf.pipeline``) on the packaged document, whose last stage,
``corpus``, checks that section, so an example passes or fails exactly as
``verify`` of the same document does.  ``example_text``/``example_json``
and ``results_table``/``results_json`` render the results as ``example``
and ``verify-all`` print them.
"""

from __future__ import annotations

from importlib import resources

from . import config as config_mod
from . import pipeline
from .errors import UnknownExampleError

EXAMPLE_NAMES = ("enriques-k1", "enriques-k2", "enriques-k3-kondo2", "enriques-k3-kondo7",
                 "enriques-k4", "enriques-k5-symplectic")


def builtin(name: str) -> dict:
    """The decoded JSON of a shipped example; it is decoded as ``verify``
    decodes a file, so a repeated key is the same SchemaError."""
    if name not in EXAMPLE_NAMES:
        raise UnknownExampleError(
            f"unknown example {name!r}; known: {', '.join(EXAMPLE_NAMES)}")
    data = resources.files("qgsurf").joinpath(f"corpus_data/{name}.json").read_bytes()
    return config_mod.decode(data)


def verify_example(name: str) -> pipeline.RunResult:
    """The verification pipeline on one shipped example."""
    return pipeline.run(config_mod.parse_unvalidated(builtin(name)))


def verify_all() -> list[pipeline.RunResult]:
    """Verify every shipped example; results in canonical name order."""
    return [verify_example(name) for name in EXAMPLE_NAMES]


def example_text(result: pipeline.RunResult) -> str:
    """The ``example`` report: name, witness, Euler deficit, report, failures, status."""
    lines = [f"example={result.document.name}", *pipeline.witness_lines(result.independence)]
    if result.euler is not None:
        lines.append(f"euler_deficit={result.euler.deficit}")
    if result.report is not None:
        lines.append(result.report.to_text())
    lines.extend(f"failure={f}" for f in result.failure_texts())
    lines.append(f"status={'pass' if result.passed else 'fail'}")
    return "\n".join(lines)


def example_json(result: pipeline.RunResult) -> dict:
    """The JSON form of ``example_text``."""
    return {
        "example": result.document.name,
        "passed": result.passed,
        "failures": result.failure_texts(),
        **pipeline.witness_fields(result.independence),
        "euler_deficit": None if result.euler is None else result.euler.deficit,
        "report": None if result.report is None else result.report.to_json(),
    }


def results_json(results) -> list[dict]:
    """The JSON form of ``results_table``: one summary per example."""
    return [
        {"example": r.document.name, "passed": r.passed,
         "failures": r.failure_texts(),
         "K2": None if r.report is None else str(r.report.K2_X),
         "indices": None if r.report is None else list(r.report.indices),
         "gcd": None if r.report is None else r.report.gcd_indices,
         "pi1": None if r.report is None else r.report.pi1_verdict}
        for r in results
    ]


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
