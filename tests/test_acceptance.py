"""Acceptance gate: one test per criterion, each printing a pass line.

Everything runs with exact arithmetic; unless a runtime bound is stated the
assertions are exact equalities.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

from test_blowup import _random_config, _random_step

from qgsurf import kernel
from qgsurf.blowup import blow_up
from qgsurf.config import independence_certificate
from qgsurf.corpus import EXAMPLE_NAMES
from qgsurf.blowup import apply_blowups
from qgsurf.fibration import euler_sum_check
from qgsurf.smoothing import moduli_dimension, topology_report
from qgsurf.wahl import (
    chain_from_fraction,
    discrepancies,
    generate_class_T,
    hj_value,
    k2_contribution,
    recognize_class_T,
)


def _ok(line):
    print(f"PASS {line}")


def _scan_rate(total, seconds):
    """The kernel's own throughput on the one cached (8, 12) scan."""
    return f"{kernel.BACKEND} scan {seconds:.2f}s, {total / seconds:.3g} chains/s"


def test_criterion_01_corpus_k2_regression(corpus_results):
    got = [str(corpus_results[name].report.K2_X) for name in EXAMPLE_NAMES]
    assert got == ["1", "2", "3", "3", "4", "5"]
    assert all(corpus_results[name].passed for name in EXAMPLE_NAMES), [
        (n, corpus_results[n].failures) for n in EXAMPLE_NAMES
        if not corpus_results[n].passed]
    _ok("criterion 1: corpus K^2 regression = 1, 2, 3, 3, 4, 5 (exact)")


def test_criterion_02_index_values_and_gcd_verdicts(corpus_results):
    from qgsurf.wahl import index

    assert index([4]) == 2
    assert index([4, 2, 3, 2]) == 3
    assert index([5, 2]) == 3
    assert index([9, 2, 2, 2, 2, 2]) == 7
    verdicts = {name: corpus_results[name].report.pi1_verdict
                for name in ("enriques-k1", "enriques-k3-kondo2", "enriques-k2")}
    assert verdicts["enriques-k1"] == "criterion-satisfied"
    assert verdicts["enriques-k3-kondo2"] == "criterion-satisfied"
    assert verdicts["enriques-k2"] == "inconclusive"
    assert corpus_results["enriques-k2"].report.gcd_indices == 2
    _ok("criterion 2: index values 2, 3, 3, 7 and gcd verdicts (exact)")


def test_criterion_03_moduli_dimensions(corpus_results):
    assert [moduli_dimension(1, k) for k in range(1, 6)] == [8, 6, 4, 2, 0]
    assert moduli_dimension(1, 5) == 0  # no nontrivial deformation at K^2 = 5
    assert corpus_results["enriques-k5-symplectic"].report.moduli_dim == 0
    _ok("criterion 3: moduli dimensions 10*chi - 2K^2 = 8, 6, 4, 2, 0 (exact)")


def test_criterion_04_euler_lint(corpus_results):
    cfg = corpus_results["enriques-k1"].document.configuration
    check = euler_sum_check(cfg.fibration, cfg.surface.chi)
    assert check.total == 12 == check.target
    assert check.deficit == 0 and check.verdict
    for name in EXAMPLE_NAMES:
        assert corpus_results[name].euler.deficit == 0, name
    _ok("criterion 4: I9 + 3*I1 sums to 12 = 12*chi, deficit 0 (exact)")


def test_criterion_05_oracle_equivalence():
    from conftest import scan_full

    start = time.monotonic()
    generated = generate_class_T(8, 12)
    # the scan is cached across tests: count its recorded duration in place
    # of this call's, so the bound covers it whichever test ran it first
    call_start = time.monotonic()
    (total, accepted, negdef_fail, _), scan_s = scan_full()
    call_s = time.monotonic() - call_start
    scanned = {tuple(c) for c in accepted}
    assert total == sum(11 ** k for k in range(1, 9))
    assert scanned == generated
    assert negdef_fail == 0
    for chain in sorted(generated):
        data = recognize_class_T(chain)
        assert data is not None
        disc = discrepancies(chain)
        assert all(Fraction(-1) < a < Fraction(0) for a in disc), chain
        assert k2_contribution(chain) == len(chain) + 1 - data.d, chain
    elapsed = time.monotonic() - start - call_s + scan_s
    assert elapsed < 60, f"property suite took {elapsed:.1f}s"
    _ok(f"criterion 5: generator == recognizer-filtered scan at (8,12), "
        f"{len(generated)} chains, discrepancies in (-1,0), "
        f"contribution = l+1-d ({elapsed:.1f}s < 60s; {_scan_rate(total, scan_s)})")


def test_criterion_06_round_trip_exhaustive(full_scan):
    (total, accepted, _, roundtrip_fail), scan_s = full_scan
    assert total == 235794768
    assert roundtrip_fail == 0
    # the Python-level pair agrees with the in-kernel expansion
    for chain in accepted:
        value = hj_value(chain)
        assert chain_from_fraction(value.numerator, value.denominator) == tuple(chain)
    rng = random.Random(7)
    for _ in range(2000):
        chain = tuple(rng.randint(2, 12)
                      for _ in range(rng.randint(1, 8)))
        value = hj_value(chain)
        assert chain_from_fraction(value.numerator, value.denominator) == chain
    _ok("criterion 6: chain_from_fraction . hj_value = identity on all "
        "235794768 chains with l <= 8, entries <= 12 (exhaustive, exact; "
        f"{_scan_rate(total, scan_s)})")


def test_criterion_07_adjunction_conservation():
    rng = random.Random(20250809)
    sequences = 0
    steps_checked = 0
    while sequences < 500:
        cfg = _random_config(rng)
        for _ in range(rng.randint(1, 5)):
            step = _random_step(rng, cfg, steps_checked)
            before = cfg.ambient_K2
            cfg = blow_up(cfg, step)
            assert cfg.ambient_K2 == before - 1
            for c in cfg.curves:
                assert c.adjunction_holds()
            steps_checked += 1
        sequences += 1
    _ok(f"criterion 7: adjunction and K^2 decrement preserved over "
        f"{sequences} randomized sequences ({steps_checked} blow-ups, exact)")


def test_criterion_08_independence_certificates(corpus_results):
    k1 = corpus_results["enriques-k1"]
    cert = independence_certificate(
        k1.document.configuration,
        ("S1", "S2", "G1", "G2", "G3", "G5", "G6", "G7", "G8", "G9"))
    assert cert.rank == 10 and cert.verdict

    k3 = corpus_results["enriques-k3-kondo2"]
    staged = apply_blowups(k3.document.configuration, k3.document.blowups[:1])
    cert3 = independence_certificate(
        staged, ("S1", "S2", "G2", "G3", "G4", "G5", "G6", "G9", "F", "E"))
    assert cert3.rank == 10 and cert3.verdict
    _ok("criterion 8: declared candidate sets of the K^2=1 and K^2=3 "
        "examples reach rank 10 (exact)")


def test_criterion_09_ampleness_certificates(corpus_results):
    for name in ("enriques-k1", "enriques-k2"):
        report = corpus_results[name].report
        assert report.ample.verdict, name
        final = corpus_results[name].final
        for entry in report.ample.entries:
            assert entry.value > 0, (name, entry)
            if final.curve(entry.curve).self_int == -1:
                assert entry.dp_term > 1, (name, entry)
    _ok("criterion 9: every non-contracted model curve of the K^2=1,2 "
        "examples has positive pullback degree; (-1)-curves exceed 1 in "
        "the discrepancy term (exact rationals)")


def test_criterion_10_topology_report():
    for k in range(1, 5):
        top = topology_report(k, 1, pi1_is_Z2=True)
        assert top.cover_c2 == 24 - 2 * k
        assert top.cover_b2plus == 3
        assert top.cover_b2minus == 19 - 2 * k
        assert abs(top.cover_sigma) == 16 - 2 * k
        assert top.sigma_divisible_by_16 is False
        assert top.homeomorphism_target == f"3CP2#{19 - 2 * k}CP2bar"
    _ok("criterion 10: double-cover invariants c2 = 24-2k, b2+ = 3, "
        "b2- = 19-2k, |sigma| = 16-2k not divisible by 16, for k = 1..4 (exact)")
