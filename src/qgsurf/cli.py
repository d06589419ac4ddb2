"""Command-line front end.

Subcommands: verify FILE, example NAME, verify-all, chain B1,B2,...,
enumerate-classT, export-dot FILE, info.  Exit status: 0 all checks pass,
1 verification failure, 2 input or schema error.  What fails is decided in
``qgsurf.pipeline``; ``example`` and ``verify-all`` print the ``RunResult``
of ``verify`` on the packaged documents, whose ``corpus``-stage failures
are the broken ``expect`` values.  All three print each failure as
``STAGE: MESSAGE``.
Output is deterministic; --output json mirrors the report structures.

This module holds the argument parser, the dispatch and the chain
commands.  The other reports are rendered beside the records they render:
``verify``'s by ``pipeline.RunResult``, ``example``'s and ``verify-all``'s
by ``corpus``; a handler prints the whole output once, so an output that
cannot be rendered prints nothing.

Only the chain analytics (``wahl``) are imported with this module.  The
handlers that need ``config``, ``pipeline`` or ``corpus`` import them when
they run, so ``chain`` and ``enumerate-classT`` never load the document
pipeline and ``verify`` never loads the corpus.  ``json`` is imported only
to print JSON, and the chain reports format through ``wahl.fraction_text``,
so ``chain`` and ``enumerate-classT`` in text load neither ``json`` nor
``fractions``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys

from .errors import QgsurfError, digit_limit
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
    Any other entry is an error naming its position: an empty one, the
    ones ``int`` would also read, such as ``3_0`` or a non-ASCII digit, and
    one with more digits than the interpreter converts to an integer.
    """
    entries = text.split(",")
    values = []
    for position, entry in enumerate(entries, 1):
        text = entry.strip()
        if not text:
            raise ValueError(f"entry {position} is empty")
        digits = text[1:] if text[0] in "+-" else text
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"entry {position} is not an integer: {entry!r}")
        try:
            values.append(int(text))
        except ValueError as exc:
            limit = digit_limit(exc)
            if limit is None:
                raise
            raise ValueError(f"entry {position} has more than {limit} digits, the "
                             "interpreter's limit for text-to-integer conversion") from None
    return values


def _print_json(value, out, indent=1) -> None:
    # json is imported here, so the text reports of chain and
    # enumerate-classT never load it
    import json
    print(json.dumps(value, indent=indent), file=out)


def _cmd_chain(args, out) -> int:
    try:
        summary = summarize(_chain_entries(args.entries))
    except (ValueError, QgsurfError) as exc:
        print(f"error: chain: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.output == "json":
        _print_json(_chain_blob(summary), out)
    else:
        print("\n".join(_chain_report_lines(summary, {})), file=out)
    return EXIT_OK


def _cmd_enumerate(args, out) -> int:
    try:
        chains = canonical_order(generate_class_T(args.max_len, args.max_entry))
    except ValueError as exc:
        print(f"error: enumerate-classT: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.output == "json":
        _print_json([list(c) for c in chains], out, indent=None)
        return EXIT_OK
    texts = {}
    lines = [" ".join(_chain_report_lines(summarize(chain), texts)) for chain in chains]
    if lines:  # an empty listing prints nothing, not an empty line
        print("\n".join(lines), file=out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    # input errors, blow-up steps that cannot be applied and smoothing
    # hypotheses that cannot be checked included, exit 2 in run()
    config = importlib.import_module(".config", __package__)
    pipeline = importlib.import_module(".pipeline", __package__)
    result = pipeline.run(config.load_document(args.path))
    if args.output == "json":
        _print_json(result.to_json(), out)
    else:
        print(result.to_text(), file=out)
    return EXIT_OK if result.passed else EXIT_FAIL


def _cmd_example(args, out) -> int:
    corpus = importlib.import_module(".corpus", __package__)
    result = corpus.verify_example(args.name)
    if args.output == "json":
        _print_json(corpus.example_json(result), out)
    else:
        print(corpus.example_text(result), file=out)
    return EXIT_OK if result.passed else EXIT_FAIL


def _cmd_verify_all(args, out) -> int:
    corpus = importlib.import_module(".corpus", __package__)
    results = corpus.verify_all()
    if args.output == "json":
        _print_json(corpus.results_json(results), out)
    else:
        print(corpus.results_table(results), file=out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def _cmd_export_dot(args, out) -> int:
    config = importlib.import_module(".config", __package__)
    print(config.export_dot(config.load_document(args.path).configuration), file=out, end="")
    return EXIT_OK


def _cmd_info(args, out) -> int:
    fields = {"version": importlib.import_module(__package__).__version__,
              "kernel_backend": importlib.import_module(".kernel", __package__).BACKEND}
    if args.output == "json":
        _print_json(fields, out)
    else:
        print("\n".join(f"{key}={value}" for key, value in fields.items()), file=out)
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
    except ValueError as exc:
        # a derived integer too long to print: each handler prints its whole
        # output at once, so nothing has reached ``out``
        limit = digit_limit(exc)
        if limit is None:
            raise
        print(f"error: an integer to print has more than {limit} digits, the interpreter's "
              "limit for integer-to-text conversion", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
