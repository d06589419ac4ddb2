"""Benchmark of qgsurf: chain scan, document verification, class-T enumeration.

    python3 perfbench/run.py --workload scan|verify|enumerate --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout; the package is imported from its
``src/`` directory, as the test suite imports it.  All load comes from this
one process as a closed loop with a single client.

``--trace 0`` measures for ``--seconds`` seconds and reports the end-to-end
metrics of BENCHMARK.json.  ``--trace 1`` runs a fixed number of units, first
untraced and then with every layer function wrapped, and reports the
per-layer metrics, normalised per pass: one exhaustive scan, one request for
each of the six documents, or one enumeration.  ``--smoke`` shrinks the
bounds and the number of requests and fails on any layer function that no
longer exists.

End-to-end metrics, with the per-workload name each is printed under:

    setup_s      import of qgsurf and qgsurf.cli (kernel backend selection
                 included) plus reading the workload's input documents, in a
                 fresh interpreter that has loaded nothing else; median of
                 twelve such processes spread over the measured window
    ops_per_s    chains scanned per second [scan_chains_per_s], documents
                 verified per second [verify_docs_per_s], chains enumerated
                 per second [enum_chains_per_s]; work over busy time
    p50_ms       per-request latency: one scan, one CLI request [verify_p50_ms]
    p90_ms       or one enumeration [verify_p90_ms]
    cold_cli_ms  median wall time of a serial `python -m qgsurf` subprocess:
                 `verify corpus/<doc>.json` (verify), `chain <b1,...>` (scan),
                 `enumerate-classT --max-len 5 --max-entry 9` (enumerate)

fail_frac, the failed share of attempted operations (a wrong output, a wrong
exit code or an exception), is printed with them and is failed / attempted in
the result line.  Human-readable lines (run metadata, every metric with its
unit and sample count) come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from layers import KEYS, LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT_S = 120
MAX_REPORTED_FAILURES = 5
COLD_CALLS = 24
SETUP_PROBES = 12

# Run with `python -c` so that no module the harness needs is loaded before
# the timer starts: the stdlib modules qgsurf imports are paid for here.
SETUP_PROBE = """\
import time
start = time.perf_counter()
import qgsurf, qgsurf.cli
import_s = time.perf_counter() - start
import json
for path in {inputs!r}:
    with open(path, encoding="utf-8") as fh:
        json.load(fh)
setup_s = time.perf_counter() - start
print(setup_s, import_s)
"""


class Tally:
    """Operations attempted and failed; the first few failures are reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, reason) -> bool:
        self.attempted += 1
        if reason:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"perfbench: FAILED {what}: {reason}", file=sys.stderr)
        return not reason


def failure(checker, out):
    """Why the output is wrong, or None; an output the checker cannot read is wrong."""
    try:
        return checker(out)
    except Exception as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def run_unit(wl, k: int, tally: Tally, latencies: list, after=None):
    """Run unit k; returns (busy seconds, operations that checked out)."""
    busy = ops = 0
    for req in wl.unit(k):
        start = time.perf_counter()
        try:
            out, reason = req.call(), None
        except Exception as exc:  # the loop goes on; the request counts as failed
            out, reason = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        latencies.append(elapsed)
        busy += elapsed
        if after:
            after(req)
        if tally.record(req.kind, reason or failure(req.check, out)):
            ops += req.ops
    return busy, ops


def percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def subprocess_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_probe(wl) -> tuple[float, float]:
    """(set-up seconds, import seconds) of one fresh interpreter."""
    code = SETUP_PROBE.format(inputs=list(wl.inputs))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=subprocess_env(),
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    setup_s, import_s = map(float, proc.stdout.split())
    return setup_s, import_s


def cold_call(argv: list[str], checker, tally: Tally) -> float:
    """Wall time of one `python -m qgsurf ...` subprocess; its output is checked."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qgsurf", *argv], cwd=ROOT,
                          env=subprocess_env(), capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    elapsed = time.perf_counter() - start
    tally.record("cold " + " ".join(argv), failure(checker, (proc.returncode, proc.stdout)))
    return elapsed


def measure(wl, args, tally: Tally) -> list[tuple]:
    """End-to-end metrics from a closed loop of whole units for --seconds seconds.

    The cold CLI calls and the set-up probes are spread over the same
    window, between units, so that every metric samples the whole run.
    """
    commands = wl.cold(2 if args.smoke else COLD_CALLS)
    n_setup = 1 if args.smoke else SETUP_PROBES
    # Subprocess jobs in run order, set-up probes evenly among the cold calls.
    jobs = sorted([("cold", i, (i + 0.5) / len(commands)) for i in range(len(commands))]
                  + [("setup", i, (i + 0.5) / n_setup) for i in range(n_setup)],
                  key=lambda job: job[2])
    busy = ops = 0
    latencies, cold, setups, walls = [], [], [], []
    start, k = time.perf_counter(), 0
    while True:
        t0 = time.perf_counter()
        unit_busy, unit_ops = run_unit(wl, k, tally, latencies)
        walls.append(time.perf_counter() - t0)
        busy, ops = busy + unit_busy, ops + unit_ops
        k += 1
        elapsed = time.perf_counter() - start
        done = args.smoke or elapsed + statistics.median(walls) > args.seconds
        due = len(jobs) if done else int(len(jobs) * elapsed / args.seconds)
        while len(cold) + len(setups) < due:
            kind, i, _ = jobs[len(cold) + len(setups)]
            if kind == "cold":
                cold.append(cold_call(*commands[i], tally))
            else:
                setups.append(setup_probe(wl)[0])
        if done:
            break
    n, what = len(latencies), wl.request_name
    command = "python -m qgsurf " + " ".join(commands[0][0])
    return [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} fresh processes"),
        ("ops_per_s", ops / busy if busy else 0.0, "1/s",
         f"{len(walls)} units of {n // len(walls)} {what}"),
        ("p50_ms", 1e3 * statistics.median(latencies), "ms", f"{n} {what}"),
        ("p90_ms", 1e3 * percentile(latencies, 90), "ms", f"{n} {what}"),
        ("cold_cli_ms", 1e3 * statistics.median(cold), "ms",
         f"median of {len(cold)} serial runs like `{command}`"),
    ]


def trace(wl, args, tally: Tally) -> list[tuple]:
    """Per-layer metrics per pass, from a fixed number of units.

    Untraced and traced units alternate, so that both sides of the tracing
    overhead see the same machine conditions.
    """
    imports = [setup_probe(wl)[1] for _ in range(1 if args.smoke else 5)]
    tracer = Tracer()
    if args.smoke and tracer.missing:
        raise SystemExit(f"perfbench: layer functions missing: {', '.join(tracer.missing)}")
    for key in tracer.missing:
        print(f"perfbench: layer function {key} no longer exists; reported as 0", file=sys.stderr)
    totals = Counter()  # requests and validate_plan calls by kind; blow-up steps; chains
    last = 0

    def after(req):
        nonlocal last
        now = tracer.calls["smoothing.validate_plan"]
        totals[req.kind, "requests"] += 1
        totals[req.kind, "validate_plan"] += now - last
        totals["steps"] += req.steps
        totals["chains"] += req.chains
        last = now

    n_traced = 1 if args.smoke else wl.traced_units
    plain, traced, latencies = [], [], []
    for k in range(n_traced):
        busy, ops = run_unit(wl, 2 * k, tally, latencies)
        plain.append(ops / busy if busy else 0.0)
        tracer.install()
        try:
            busy, ops = run_unit(wl, 2 * k + 1, tally, latencies, after)
        finally:
            tracer.uninstall()
        traced.append(ops / busy if busy else 0.0)

    passes = n_traced * wl.passes_per_unit
    calls = tracer.calls
    inclusive, self_s = tracer.summary()
    out = []
    for key in KEYS:
        out.append((f"{key}.calls", calls[key] / passes, "calls/pass", ""))
        out.append((f"{key}.s", inclusive[key] / passes, "s/pass", "inclusive"))
    for layer in LAYERS:
        out.append((f"{layer}.self_s", self_s[layer] / passes, "s/pass",
                    "minus child spans"))
    scan_s = inclusive["kernel.scan_chains"]
    entries = [kind for kind in ("example", "verify") if totals[kind, "requests"]]
    docs = sum(totals[kind, "requests"] for kind in entries)
    steps, chains = totals["steps"], totals["chains"]
    out += [
        ("kernel.chains", tracer.kernel_chains / passes, "chains/pass", ""),
        ("kernel.chains_per_s", tracer.kernel_chains / scan_s if scan_s else 0.0, "1/s", ""),
        ("wahl.discrepancies.calls_per_chain",
         calls["wahl.discrepancies"] / chains if chains else 0.0, "ratio",
         f"over {chains} chains the requests needed solved"),
        ("smoothing.validate_plan.calls_per_doc",
         calls["smoothing.validate_plan"] / docs if docs else 0.0, "ratio",
         "; ".join(f"{kind} {totals[kind, 'validate_plan'] / totals[kind, 'requests']:g}"
                   for kind in entries)),
        ("blowup.replay_ratio", calls["blowup.blow_up"] / steps if steps else 0.0, "ratio",
         f"blow_up calls over {steps} declared steps"),
        ("cli.import_s", statistics.median(imports), "s",
         f"import of qgsurf, qgsurf.cli; median of {len(imports)} fresh processes"),
        ("trace.untraced_ops_per_s", statistics.median(plain), "1/s",
         f"median over {len(plain)} units"),
        ("trace.traced_ops_per_s", statistics.median(traced), "1/s",
         f"median over {len(traced)} units"),
        ("trace.slowdown", statistics.median(plain) / (statistics.median(traced) or 1.0), "ratio",
         "untraced over traced ops/s"),
    ]
    return out


def run_metadata(args, why: str) -> dict:
    def git(*argv):
        proc = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *argv],
                              capture_output=True, text=True, timeout=30)
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = git("rev-parse", "HEAD")
            status = git("status", "--porcelain", "--untracked-files=no")
            dirty = None if status is None else bool(status)
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    from qgsurf import kernel
    return {"workload": args.workload, "seed": args.seed, "why": why, "trace": args.trace,
            "seconds": args.seconds, "smoke": args.smoke, "kernel_backend": kernel.BACKEND,
            "python": sys.version.split()[0], "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "git_sha": sha, "git_dirty": dirty}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "verify", "enumerate"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny bounds, few requests, strict layer list")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qgsurf" / "__init__.py").is_file():
        print(f"perfbench: no qgsurf sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    import qgsurf
    if not Path(qgsurf.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported qgsurf from {qgsurf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, args.smoke)

    tally = Tally()
    for reason in wl.prepare():
        tally.record("prepare", reason)
    metrics = trace(wl, args, tally) if args.trace else measure(wl, args, tally)

    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if wanted != {name: unit for name, _, unit, _ in metrics}:
        print("perfbench: metrics do not match BENCHMARK.json", file=sys.stderr)
        return 2

    print(f"perfbench meta {json.dumps(run_metadata(args, why))}")
    for name, value, unit, note in metrics:
        label = f"{name} [{wl.aliases[name]}]" if name in wl.aliases else name
        print(f"  {label:44} {value:>14.6g} {unit:11} {note}")
    print(f"  {'fail_frac':44} {tally.failed / tally.attempted:>14.6g} {'ratio':11} "
          f"{tally.failed} of {tally.attempted} operations failed")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
