"""Tests of the benchmark harness itself, in its smoke mode.

    python3 -m pytest perfbench

Each case starts ``run.py --smoke`` in a subprocess, as the benchmark is run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=1, root=ROOT, smoke=True):
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv + ["--smoke"] * smoke, cwd=root, capture_output=True,
                          text=True, timeout=300)


def result(workload, trace, seed=1):
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stderr
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_all_reported_and_positive(workload):
    metrics = result(workload, 0)["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_call_counts_repeat_for_the_same_seed(workload):
    first, second = result(workload, 1, seed=7), result(workload, 1, seed=7)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    def counts(res):
        return {n: m["value"] for n, m in res["metrics"].items() if m["unit"] == "calls/pass"}

    assert counts(first) == counts(second)
    assert (counts(first)["kernel.scan_chains.calls"] > 0) == (workload == "scan")


def _copy_checkout(dest: Path, with_sources: bool) -> Path:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
        shutil.copytree(ROOT / "corpus", dest / "corpus")
    return dest


def test_fails_without_the_package(tmp_path):
    proc = run("verify", 0, root=_copy_checkout(tmp_path, with_sources=False), smoke=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_smoke_fails_when_a_traced_function_is_gone(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=True)
    with open(root / "src" / "qgsurf" / "ratlin.py", "a", encoding="utf-8") as fh:
        fh.write("\ndel determinant\n")
    proc = run("scan", 1, root=root)
    assert proc.returncode != 0
    assert "ratlin.determinant" in proc.stderr
