"""Command-line front end.

Subcommands: verify FILE, example NAME, verify-all, chain B1,B2,...,
enumerate-classT, export-dot FILE, info.  Exit status: 0 all checks pass,
1 verification failure, 2 input or schema error.  What fails is decided in
``qgsurf.pipeline``; ``example`` and ``verify-all`` print the ``RunResult``
of ``verify`` on the packaged documents, whose ``corpus``-stage failures
are the broken ``expect`` values.  All three print each failure as
``STAGE: MESSAGE``.
Output is deterministic; --output json mirrors the report structures.

Only the chain analytics (``wahl``) are imported with this module.  The
handlers that need ``config``, ``pipeline`` or ``corpus`` import them when
they run, so ``chain`` and ``enumerate-classT`` never load the document
pipeline and ``verify`` never loads the corpus.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys

from .errors import QgsurfError
from .wahl import ChainSummary, canonical_order, fraction_text, generate_class_T, summarize

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _chain_report_lines(summary: ChainSummary, texts: dict) -> list[str]:
    """The three report lines of one chain.

    ``texts`` maps m to {x: fraction_text(x, m)}; a listing passes one dict
    for all its chains, so each numerator over each m is formatted once.
    """
    chain, m, q, data, numerators, contribution = summary
    memo = texts.setdefault(m, {})
    parts = []
    for x in numerators:
        text = memo.get(x)
        if text is None:
            text = memo[x] = fraction_text(x, m)
        parts.append(text)
    tail = (f"contribution={fraction_text(contribution, m)} "
            f"discrepancies={','.join(parts)}")
    lines = ["chain=" + ",".join(map(str, chain)), f"hj={m}/{q}"]
    if data is not None:
        d, n, a = data
        lines.append(f"classT d={d} n={n} a={a} m={m} q={q} index={n} {tail}")
    else:
        lines.append(f"notClassT {tail}")
    return lines


def _chain_blob(summary: ChainSummary) -> dict:
    m, data = summary.m, summary.class_t
    return {
        "chain": list(summary.chain),
        "hj": f"{m}/{summary.q}",
        "classT": None if data is None else {
            "d": data.d, "n": data.n, "a": data.a, "m": data.m, "q": data.q,
            "index": data.index},
        "contribution": fraction_text(summary.contribution_numerator, m),
        "discrepancies": [fraction_text(x, m) for x in summary.numerators],
    }


def _chain_entries(text: str) -> list[int]:
    """The integers of a comma-separated chain.

    An entry is an optional sign and ASCII digits, with spaces around them.
    Any other entry is an error naming its position: an empty one, and the
    ones ``int`` would also read, such as ``3_0`` or a non-ASCII digit.
    """
    entries = text.split(",")
    for position, entry in enumerate(entries, 1):
        text = entry.strip()
        if not text:
            raise ValueError(f"entry {position} is empty")
        digits = text[1:] if text[0] in "+-" else text
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"entry {position} is not an integer: {entry!r}")
    return [int(x) for x in entries]


def _cmd_chain(args, out) -> int:
    try:
        summary = summarize(_chain_entries(args.entries))
    except (ValueError, QgsurfError) as exc:
        print(f"error: chain: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.output == "json":
        print(json.dumps(_chain_blob(summary), indent=1), file=out)
    else:
        for line in _chain_report_lines(summary, {}):
            print(line, file=out)
    return EXIT_OK


def _cmd_enumerate(args, out) -> int:
    try:
        chains = canonical_order(generate_class_T(args.max_len, args.max_entry))
    except ValueError as exc:
        print(f"error: enumerate-classT: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.output == "json":
        print(json.dumps([list(c) for c in chains]), file=out)
        return EXIT_OK
    texts = {}
    lines = [" ".join(_chain_report_lines(summarize(chain), texts)) for chain in chains]
    if lines:  # an empty listing prints nothing, not an empty line
        print("\n".join(lines), file=out)
    return EXIT_OK


def _load_document(path: str):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise QgsurfError(f"cannot read {path}: {exc.strerror}") from None
    return importlib.import_module(".config", __package__).parse_unvalidated(data)


def _cmd_verify(args, out) -> int:
    # input errors, blow-up steps that cannot be applied and smoothing
    # hypotheses that cannot be checked included, exit 2 in run()
    pipeline = importlib.import_module(".pipeline", __package__)
    result = pipeline.run(_load_document(args.path))
    lint_lines = []
    euler = result.euler
    if euler is not None:
        lint_lines.append(
            f"euler_sum={euler.total} target={euler.target} deficit={euler.deficit}"
            + (f" note={euler.note}" if euler.note else ""))
    lint_lines.extend(f"advisory={a}" for a in result.advisories)
    failures = _failure_texts(result)
    status = "pass" if result.passed else "fail"

    if args.output == "json":
        blob = {
            "violations": failures,
            "lints": lint_lines,
            **_witness_fields(result.independence),
            "report": None if result.report is None else result.report.to_json(),
            "status": status,
        }
        print(json.dumps(blob, indent=1), file=out)
    else:
        for line in lint_lines + _witness_lines(result.independence):
            print(line, file=out)
        if result.report is not None:
            print(result.report.to_text(), file=out)
        for f in failures:
            print(f"violation={f}", file=out)
        print(f"status={status}", file=out)
    return EXIT_OK if result.passed else EXIT_FAIL


def _failure_texts(result) -> list[str]:
    """Each failure of a run as ``STAGE: MESSAGE``."""
    return [f"{f.stage}: {f}" for f in result.failures]


def _witness_fields(cert) -> dict:
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


def _relation_text(coeffs: dict) -> str:
    terms = "".join(("-" if c < 0 else "+") + ("" if abs(c) == 1 else f"{abs(c)}*") + name
                    for name, c in coeffs.items())
    return terms.removeprefix("+")


def _witness_lines(cert) -> list[str]:
    """The text form of ``_witness_fields``: no line without a certificate."""
    if cert is None:
        return []
    fields = _witness_fields(cert)
    pivots = fields["independence_pivots"]
    return [f"independence_rank={cert.rank}",
            f"independence_pivots={','.join(pivots['rows'])} x {','.join(pivots['columns'])}",
            f"independence_minor={fields['independence_minor']}",
            *(f"independence_relation={_relation_text(coeffs)}"
              for coeffs in fields["independence_relation"])]


def _cmd_example(args, out) -> int:
    corpus = importlib.import_module(".corpus", __package__)
    result = corpus.verify_example(args.name)
    deficit = None if result.euler is None else result.euler.deficit
    failures = _failure_texts(result)
    if args.output == "json":
        blob = {
            "example": args.name,
            "passed": result.passed,
            "failures": failures,
            **_witness_fields(result.independence),
            "euler_deficit": deficit,
            "report": None if result.report is None else result.report.to_json(),
        }
        print(json.dumps(blob, indent=1), file=out)
    else:
        for line in [f"example={args.name}"] + _witness_lines(result.independence):
            print(line, file=out)
        if deficit is not None:
            print(f"euler_deficit={deficit}", file=out)
        if result.report is not None:
            print(result.report.to_text(), file=out)
        for f in failures:
            print(f"failure={f}", file=out)
        print(f"status={'pass' if result.passed else 'fail'}", file=out)
    return EXIT_OK if result.passed else EXIT_FAIL


def _cmd_verify_all(args, out) -> int:
    corpus = importlib.import_module(".corpus", __package__)
    results = corpus.verify_all()
    if args.output == "json":
        blob = [
            {"example": r.document.name, "passed": r.passed,
             "failures": _failure_texts(r),
             "K2": None if r.report is None else str(r.report.K2_X),
             "indices": None if r.report is None else list(r.report.indices),
             "gcd": None if r.report is None else r.report.gcd_indices,
             "pi1": None if r.report is None else r.report.pi1_verdict}
            for r in results
        ]
        print(json.dumps(blob, indent=1), file=out)
    else:
        print(corpus.results_table(results), file=out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def _cmd_export_dot(args, out) -> int:
    doc = _load_document(args.path)
    config = importlib.import_module(".config", __package__)
    print(config.export_dot(doc.configuration), file=out, end="")
    return EXIT_OK


def _cmd_info(args, out) -> int:
    fields = {"version": importlib.import_module(__package__).__version__,
              "kernel_backend": importlib.import_module(".kernel", __package__).BACKEND}
    if args.output == "json":
        print(json.dumps(fields, indent=1), file=out)
    else:
        for key, value in fields.items():
            print(f"{key}={value}", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgsurf",
        description="Exact verifier for chain-contraction surface constructions")
    parser.add_argument("--output", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a configuration document")
    p.add_argument("path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example", help="verify one built-in example")
    p.add_argument("name")
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("verify-all", help="verify every built-in example")
    p.set_defaults(func=_cmd_verify_all)

    p = sub.add_parser("chain", help="analyze one linear chain b1,b2,...")
    p.add_argument("entries")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("enumerate-classT", help="list smoothable chains within bounds")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--max-entry", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("export-dot", help="emit the configuration's dual graph")
    p.add_argument("path")
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("info", help="print the version and the chain-scan kernel in use")
    p.set_defaults(func=_cmd_info)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``run`` and reused: parsing leaves it unchanged."""
    return build_parser()


def run(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    args = _parser().parse_args(argv)
    try:
        return args.func(args, out)
    except QgsurfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
