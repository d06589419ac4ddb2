"""The benchmark's three workloads: their inputs, requests and output checks.

A workload names the input documents it reads (``inputs``, read again in
every set-up probe) and hands out its requests in units: one exhaustive
scan, one seeded deck of CLI requests covering every document, one
enumeration.  Every
request carries the check its output must pass.  Importing this module
imports qgsurf, so the caller puts the package on ``sys.path`` first.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from qgsurf import _kernel_py, cli, corpus, kernel, wahl

# K^2, indices, gcd of the indices, pi_1 verdict, moduli dimension and p_g of
# each shipped document: the values of qgsurf.corpus.EXPECTED, kept here too
# so that the check does not rest on the code it checks.
EXPECTED = {
    "enriques-k1": ("1", (3, 3, 2, 2), 1, "criterion-satisfied", 8, 0),
    "enriques-k2": ("2", (4, 6, 2), 2, "inconclusive", 6, 0),
    "enriques-k3-kondo2": ("3", (3, 7, 13), 1, "criterion-satisfied", 4, 0),
    "enriques-k3-kondo7": ("3", (3, 7, 6), 1, "criterion-satisfied", 4, 0),
    "enriques-k4": ("4", (19, 73), 1, "criterion-satisfied", 2, 0),
    "enriques-k5-symplectic": ("5", (4, 151), 1, "criterion-satisfied", 0, 0),
}
DOCS = tuple(EXPECTED)


def doc_path(name: str) -> str:
    return f"corpus/{name}.json"


@dataclass
class Request:
    kind: str                                # scan, verify, example or enumerate
    call: Callable[[], object]               # runs the request, returns its output
    ops: int                                 # operations done when the output checks out
    check: Callable[[object], Optional[str]]  # output -> reason it is wrong, or None
    steps: int = 0                           # blow-up steps the document declares
    chains: int = 0                          # chains whose discrepancies the request needs


def cli_call(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI request: (exit code, standard output)."""
    buf = io.StringIO()
    rc = cli.run(argv, buf)  # looked up per call, so a traced cli.run is seen
    return rc, buf.getvalue()


def _fields(tokens) -> dict[str, str]:
    return dict(tok.partition("=")[::2] for tok in tokens)


def check_class_t_line(chain: tuple[int, ...], fields: dict[str, str]) -> Optional[str]:
    """Criterion 5 on one reported chain: discrepancies in (-1, 0), contribution l + 1 - d."""
    if "classT" not in fields:
        return f"{chain}: not reported as class T"
    disc = [Fraction(x) for x in fields["discrepancies"].split(",")]
    if len(disc) != len(chain) or not all(-1 < a < 0 for a in disc):
        return f"{chain}: discrepancies {fields['discrepancies']} not all in (-1, 0)"
    if Fraction(fields["contribution"]) != len(chain) + 1 - int(fields["d"]):
        return f"{chain}: contribution {fields['contribution']} != l + 1 - d"
    return None


class Scan:
    name = "scan"
    request_name = "exhaustive scans"
    aliases = {"ops_per_s": "scan_chains_per_s", "p50_ms": "scan_pass_p50_ms",
               "p90_ms": "scan_pass_p90_ms"}
    inputs = ()  # the bounds are the only input
    passes_per_unit = 1
    traced_units = 2  # a traced run alternates this many untraced and traced units

    def __init__(self, seed: int, smoke: bool):
        self.rng = random.Random(seed)
        self.bounds = (3, 6) if smoke else (6, 12)

    def prepare(self) -> list[str]:
        """Oracles, computed before anything is timed or traced."""
        max_len, max_entry = self.bounds
        self.total = sum((max_entry - 1) ** k for k in range(1, max_len + 1))
        self.accepted = wahl.generate_class_T(max_len, max_entry)
        self.twin = None
        if kernel.BACKEND != "python":
            self.twin = _kernel_py.scan_chains(max_len, max_entry)
        return []

    def unit(self, k: int) -> list[Request]:
        max_len, max_entry = self.bounds
        return [Request("scan", lambda: wahl.exhaustive_scan(max_len, max_entry),
                        self.total, self._check)]

    def _check(self, out) -> Optional[str]:
        total, accepted, negdef, roundtrip = out
        if total != self.total:
            return f"scanned {total} chains, expected {self.total}"
        if len(accepted) != len(set(accepted)) or set(accepted) != self.accepted:
            return "accepted chains differ from generate_class_T"
        if negdef or roundtrip:
            return f"{negdef} negative-definiteness and {roundtrip} round-trip failures"
        if self.twin is not None and out != self.twin:
            return f"{kernel.BACKEND} kernel differs from the pure-Python twin"
        return None

    def cold(self, n: int) -> list[tuple[list[str], Callable]]:
        chains = self.rng.sample(sorted(self.accepted), n)
        return [(["--output", "json", "chain", ",".join(map(str, c))],
                 lambda out, c=c: self._check_chain(c, out)) for c in chains]

    @staticmethod
    def _check_chain(chain, out) -> Optional[str]:
        rc, text = out
        if rc != 0:
            return f"chain {chain}: exit code {rc}"
        blob = json.loads(text)
        if tuple(blob["chain"]) != chain or blob["classT"] is None:
            return f"chain {chain}: wrong chain or not class T"
        fields = {"classT": "", "d": str(blob["classT"]["d"]),
                  "contribution": blob["contribution"],
                  "discrepancies": ",".join(blob["discrepancies"])}
        return check_class_t_line(chain, fields)


class Verify:
    name = "verify"
    request_name = "requests"
    aliases = {"ops_per_s": "verify_docs_per_s", "p50_ms": "verify_p50_ms",
               "p90_ms": "verify_p90_ms"}
    inputs = tuple(doc_path(name) for name in DOCS)
    traced_units = 12

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.rng = random.Random(seed)
        self.sizes = {}  # document -> (declared blow-up steps, chains in the plan)
        for name in DOCS:
            doc = json.loads(Path(doc_path(name)).read_text(encoding="utf-8"))
            self.sizes[name] = (len(doc["blowups"]), len(doc["plan"]["chains"]))
        combos = [(entry, output) for entry in ("verify", "example") for output in ("text", "json")]
        # A full deck holds every (document, entry, output) once and the seed
        # only orders it, so the request mix, and with it the latency
        # distribution, is the same for every seed.
        if smoke:
            self.deck = [(name,) + self.rng.choice(combos) for name in DOCS]
        else:
            self.deck = [(name,) + combo for name in DOCS for combo in combos]
        self.passes_per_unit = len(self.deck) // len(DOCS)

    def prepare(self) -> list[str]:
        declared = getattr(corpus, "EXPECTED", {})
        return [f"{name}: corpus.EXPECTED disagrees with the benchmark's table"
                for name, e in declared.items()
                if EXPECTED.get(name) != (str(e.K2), e.indices, e.gcd, e.pi1,
                                          e.moduli_dim, e.p_g)]

    def unit(self, k: int) -> list[Request]:
        """Deck k: every (document, entry, output) of the deck, in a seeded order."""
        deck = list(self.deck)
        random.Random(self.seed * 7919 + k).shuffle(deck)
        return [self._request(*item) for item in deck]

    def _request(self, name: str, entry: str, output: str) -> Request:
        target = doc_path(name) if entry == "verify" else name
        argv = ["--output", output, entry, target]
        steps, chains = self.sizes[name]
        return Request(entry, lambda: cli_call(argv), 1,
                       lambda out: self.check_doc(name, entry, output, out),
                       steps=steps, chains=chains)

    @staticmethod
    def check_doc(name: str, entry: str, output: str, out) -> Optional[str]:
        rc, text = out
        if rc != 0:
            return f"{entry} {name}: exit code {rc}"
        if output == "json":
            blob = json.loads(text)
            passed = blob["status"] == "pass" if entry == "verify" else blob["passed"] is True
            rep = blob["report"]
            got = (rep["K2_X"], tuple(rep["indices"]), rep["gcd_indices"], rep["pi1"],
                   rep["moduli_dim"], rep["p_g"])
        else:
            f = _fields(text.splitlines())
            passed = f["status"] == "pass"
            got = (f["K2_X"], tuple(int(i) for i in f["indices"].split(",")),
                   int(f["gcd_indices"]), f["pi1"], int(f["moduli_dim"]), int(f["p_g"]))
        if not passed:
            return f"{entry} {name} ({output}): status is not pass"
        if got != EXPECTED[name]:
            return f"{entry} {name} ({output}): got {got}, expected {EXPECTED[name]}"
        return None

    def cold(self, n: int) -> list[tuple[list[str], Callable]]:
        names = list(DOCS) * -(-n // len(DOCS))
        self.rng.shuffle(names)
        return [(["--output", "json", "verify", doc_path(name)],
                 lambda out, name=name: self.check_doc(name, "verify", "json", out))
                for name in names[:n]]


class Enumerate:
    name = "enumerate"
    request_name = "enumerations"
    aliases = {"ops_per_s": "enum_chains_per_s", "p50_ms": "enum_pass_p50_ms",
               "p90_ms": "enum_pass_p90_ms"}
    inputs = ()
    passes_per_unit = 1
    traced_units = 2
    cold_bounds = (5, 9)
    sample_size = 64

    def __init__(self, seed: int, smoke: bool):
        self.rng = random.Random(seed)
        self.bounds = (5, 9) if smoke else (10, 14)

    def prepare(self) -> list[str]:
        self.expected = {b: wahl.canonical_order(wahl.generate_class_T(*b))
                         for b in {self.bounds, self.cold_bounds}}
        count = len(self.expected[self.bounds])
        self.sample = sorted(self.rng.sample(range(count), min(self.sample_size, count)))
        return []

    def unit(self, k: int) -> list[Request]:
        argv = ["enumerate-classT", "--max-len", str(self.bounds[0]),
                "--max-entry", str(self.bounds[1])]
        count = len(self.expected[self.bounds])
        return [Request("enumerate", lambda: cli_call(argv), count,
                        lambda out: self._check(self.bounds, self.sample, out), chains=count)]

    def _check(self, bounds, sample, out) -> Optional[str]:
        rc, text = out
        if rc != 0:
            return f"enumerate-classT {bounds}: exit code {rc}"
        lines = text.splitlines()
        chains = [tuple(int(b) for b in line.split(" ", 1)[0][len("chain="):].split(","))
                  for line in lines]
        if chains != self.expected[bounds]:
            return f"enumerate-classT {bounds}: chains differ from canonical_order(generate_class_T)"
        for i in sample:
            reason = check_class_t_line(chains[i], _fields(lines[i].split()))
            if reason:
                return reason
        return None

    def cold(self, n: int) -> list[tuple[list[str], Callable]]:
        argv = ["enumerate-classT", "--max-len", str(self.cold_bounds[0]),
                "--max-entry", str(self.cold_bounds[1])]
        every = range(len(self.expected[self.cold_bounds]))
        return [(argv, lambda out: self._check(self.cold_bounds, every, out))] * n


WORKLOADS = {w.name: w for w in (Scan, Verify, Enumerate)}
