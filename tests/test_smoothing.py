from fractions import Fraction

import pytest

from qgsurf.config import Configuration, CurveClass, SurfaceInvariants, parse
from qgsurf.errors import DomainError, PlanInvalidError, Violation
from qgsurf.smoothing import (
    ContractionPlan,
    ampleness_certificate,
    build_report,
    contract_invariants,
    moduli_dimension,
    pi1_criterion,
    topology_report,
    validate_plan,
)


def chain_config(entries, extra=(), extra_pairs=(), kind="enriques"):
    """A bare linear chain [b1..bl] plus optional extra curves."""
    curves = [(f"Z{i}", -b, b - 2, 0) for i, b in enumerate(entries)]
    curves += list(extra)
    names = [c[0] for c in curves]
    idx = {n: i for i, n in enumerate(names)}
    grid = [[0] * len(curves) for _ in curves]
    cc = []
    for i, (name, self_int, kdeg, genus) in enumerate(curves):
        grid[i][i] = self_int
        cc.append(CurveClass(name=name, self_int=self_int, K_deg=kdeg, genus=genus))
    for i in range(len(entries) - 1):
        grid[i][i + 1] = grid[i + 1][i] = 1
    for a, b, v in extra_pairs:
        grid[idx[a]][idx[b]] = v
        grid[idx[b]][idx[a]] = v
    return Configuration(
        surface=SurfaceInvariants(kind=kind, chi=1, K2=0, K_num_trivial=(kind == "enriques")),
        curves=tuple(cc),
        pairing=tuple(tuple(r) for r in grid),
        blowup_count=0,
    )


def names_for(entries):
    return [f"Z{i}" for i in range(len(entries))]


def test_validate_plan_clean_corpus(corpus_results):
    for name, result in corpus_results.items():
        final = result.final
        plan = result.document.plan
        assert validate_plan(final, plan) == [], name


def test_validate_plan_rejects_genus():
    cfg = chain_config([4], extra=[("C", -4, 0, 1)])
    plan = ContractionPlan(chains=(("C",),))
    violations = validate_plan(cfg, plan)
    assert any(v.kind == "plan-genus" for v in violations)


def test_validate_plan_rejects_overlap():
    cfg = chain_config([4, 2, 3, 2])
    plan = ContractionPlan(chains=(("Z0", "Z1"), ("Z1", "Z2")))
    violations = validate_plan(cfg, plan)
    assert any(v.kind == "plan-overlap" for v in violations)


def test_validate_plan_rejects_broken_shape():
    cfg = chain_config([4, 2, 3, 2])
    plan = ContractionPlan(chains=(("Z0", "Z2"),))  # not adjacent
    violations = validate_plan(cfg, plan)
    assert any(v.kind == "plan-shape" for v in violations)


def _shape_oracle(cfg, chain, label):
    """The per-pair shape check, run on every pair of the chain: consecutive
    curves meet once, others not at all."""
    out = []
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            want = 1 if j == i + 1 else 0
            got = cfg.pairing_of(chain[i], chain[j])
            if got != want:
                out.append(Violation("plan-shape", label,
                                     f"{chain[i]}.{chain[j]} = {got}, expected {want}"))
    return out


@pytest.mark.parametrize("a, b, value", [
    ("Z0", "Z1", 2), ("Z0", "Z1", 0), ("Z1", "Z2", -1), ("Z2", "Z3", 3),
    ("Z0", "Z2", 1), ("Z0", "Z3", 2), ("Z1", "Z3", -1),
])
def test_plan_shape_names_every_pair_it_breaks(a, b, value):
    # each chain row is tested whole first; a row that fails is named pair by pair
    cfg = chain_config([4, 2, 3, 2], extra_pairs=[(a, b, value)])
    chain = tuple(names_for([4, 2, 3, 2]))
    got = [v for v in validate_plan(cfg, ContractionPlan(chains=(chain,)))
           if v.kind == "plan-shape"]
    assert got == _shape_oracle(cfg, chain, "chain0") != []


def test_validate_plan_rejects_unsmoothable_chain():
    cfg = chain_config([2, 3, 2])
    plan = ContractionPlan(chains=(tuple(names_for([2, 3, 2])),))
    violations = validate_plan(cfg, plan)
    assert any(v.kind == "plan-smoothability" for v in violations)


@pytest.mark.parametrize("kind", ["enriques", "k3", "e"])
def test_validate_plan_rejects_declared_q_on_a_regular_ambient(kind):
    # these ambients have q = 0, and a smoothing of rational singularities
    # cannot raise it
    cfg = chain_config([4], kind=kind)
    assert validate_plan(cfg, ContractionPlan(chains=(("Z0",),), declared_q=1)) == [
        Violation("plan-q", "plan.q", f"declared q = 1, but kind {kind!r} has q = 0")]
    assert validate_plan(cfg, ContractionPlan(chains=(("Z0",),))) == []


def test_other_ambient_keeps_its_declared_q():
    cfg = chain_config([4], kind="other")
    report = build_report(cfg, ContractionPlan(chains=(("Z0",),), declared_q=2))
    assert (report.q, report.p_g) == (2, 2)


def test_contract_invariants_direct():
    cfg = chain_config([4])
    k2, chi, p_g = contract_invariants(cfg, ContractionPlan(chains=(("Z0",),)))
    assert k2 == Fraction(1)
    assert (chi, p_g) == (1, 0)


def test_contract_invariants_requires_valid_plan():
    cfg = chain_config([5])
    with pytest.raises(PlanInvalidError):
        contract_invariants(cfg, ContractionPlan(chains=(("Z0",),)))


@pytest.mark.parametrize("view", [ampleness_certificate, pi1_criterion])
def test_plan_views_require_valid_plan(view):
    cfg = chain_config([5])
    with pytest.raises(PlanInvalidError):
        view(cfg, ContractionPlan(chains=(("Z0",),)))


def test_contract_invariants_chain_order_irrelevant(corpus_results):
    result = corpus_results["enriques-k2"]
    final, plan = result.final, result.document.plan
    k2, _, _ = contract_invariants(final, plan)
    shuffled = ContractionPlan(
        chains=tuple(reversed([tuple(reversed(c)) for c in plan.chains])),
        declared_q=plan.declared_q)
    k2b, _, _ = contract_invariants(final, shuffled)
    assert k2 == k2b == Fraction(2)


def pullbacks(config, plan) -> dict:
    """The degree of the pulled-back canonical class on each non-contracted
    curve, read from the report's ampleness entries."""
    return {e.curve: e.value for e in build_report(config, plan).ample.entries}


def test_pullback_disjoint_curve_is_zero():
    cfg = chain_config([4], extra=[("C", -2, 0, 0)])
    plan = ContractionPlan(chains=(("Z0",),))
    assert pullbacks(cfg, plan)["C"] == 0


def test_pullback_minus_two_touching_chain_end():
    cfg = chain_config([4], extra=[("C", -2, 0, 0)], extra_pairs=[("C", "Z0", 1)])
    plan = ContractionPlan(chains=(("Z0",),))
    assert pullbacks(cfg, plan)["C"] == Fraction(1, 2)


def test_pullback_contracted_curve_rejected():
    # a contracted curve has no ampleness entry
    cfg = chain_config([4], extra=[("C", -2, 0, 0)])
    assert list(pullbacks(cfg, ContractionPlan(chains=(("Z0",),)))) == ["C"]


def test_pullback_additive_over_chains(corpus_results):
    result = corpus_results["enriques-k1"]
    final, plan = result.final, result.document.plan
    full = pullbacks(final, plan)["e5"]
    # dropping one chain removes exactly its own discrepancy term
    partial_plan = ContractionPlan(chains=plan.chains[1:], declared_q=plan.declared_q)
    partial = pullbacks(final, partial_plan)["e5"]
    first_plan = ContractionPlan(chains=plan.chains[:1])
    only_first = pullbacks(final, first_plan)["e5"] - final.curve("e5").K_deg
    assert full == partial + only_first


def test_ampleness_clean_example(corpus_results):
    report = corpus_results["enriques-k1"].report
    assert report.ample.verdict
    values = {e.curve: e.value for e in report.ample.entries}
    assert values["G4"] == Fraction(2, 3)
    assert values["F"] == Fraction(2)
    assert values["e5"] == Fraction(1, 3)


def test_ampleness_fails_on_disjoint_minus_two():
    cfg = chain_config([4], extra=[("C", -2, 0, 0)])
    plan = ContractionPlan(chains=(("Z0",),))
    cert = ampleness_certificate(cfg, plan)
    assert not cert.verdict
    value = {e.curve: e.value for e in cert.entries}["C"]
    assert value == 0
    assert "PARTIAL" in cert.scope


def test_pi1_criterion_coprime():
    cfg = chain_config([4], extra=[(n, s, k, g) for n, s, k, g in []])
    # [4] alone: index 2, gcd 2 -> inconclusive even on an Enriques ambient
    crit = pi1_criterion(cfg, ContractionPlan(chains=(("Z0",),)))
    assert crit.indices == (2,) and crit.gcd == 2
    assert crit.verdict == "inconclusive"


def test_pi1_criterion_corpus(corpus_results):
    expect = {
        "enriques-k1": ((3, 3, 2, 2), 1, "criterion-satisfied"),
        "enriques-k2": ((4, 6, 2), 2, "inconclusive"),
        "enriques-k3-kondo2": ((3, 7, 13), 1, "criterion-satisfied"),
    }
    for name, (indices, g, verdict) in expect.items():
        result = corpus_results[name]
        crit = pi1_criterion(result.final, result.document.plan)
        assert crit.indices == indices
        assert crit.gcd == g
        assert crit.verdict == verdict


def test_pi1_needs_enriques_ambient():
    cfg = chain_config([4, 2, 3, 2], kind="other")
    crit = pi1_criterion(cfg, ContractionPlan(chains=(tuple(names_for([4, 2, 3, 2])),)))
    assert crit.gcd == 3 and crit.verdict == "inconclusive"


@pytest.mark.parametrize("k, dim", [(1, 8), (2, 6), (3, 4), (4, 2), (5, 0)])
def test_moduli_dimension_table(k, dim):
    assert moduli_dimension(1, k) == dim


def test_moduli_dimension_general():
    assert moduli_dimension(2, 3) == 14


@pytest.mark.parametrize("k, c2, b2minus, sigma", [
    (1, 22, 17, -14), (2, 20, 15, -12), (3, 18, 13, -10), (4, 16, 11, -8),
])
def test_topology_cover_values(k, c2, b2minus, sigma):
    top = topology_report(k, 1, pi1_is_Z2=True)
    assert top.c2 == 12 - k
    assert top.b2plus == 1 and top.b2minus == 9 - k
    assert top.cover_chi == 2
    assert top.cover_c1sq == 2 * k
    assert (top.cover_c2, top.cover_b2minus, top.cover_sigma) == (c2, b2minus, sigma)
    assert top.cover_b2plus == 3
    assert top.sigma_divisible_by_16 is False
    assert top.homeomorphism_target == f"3CP2#{19 - 2 * k}CP2bar"


def test_topology_sigma_divisibility_boundary():
    top = topology_report(0, 1, pi1_is_Z2=True)
    assert top.cover_sigma == -16
    assert top.sigma_divisible_by_16 is True


def test_topology_without_cover():
    top = topology_report(3, 1, pi1_is_Z2=False)
    assert top.cover_sigma is None and top.homeomorphism_target is None


@pytest.mark.parametrize("k, q, b2plus, b2minus", [
    (1, 0, 1, 8), (1, 1, 3, 10), (3, 2, 5, 10), (0, 1, 3, 11)])
def test_topology_uses_b1_and_pg_from_q(k, q, b2plus, b2minus):
    top = topology_report(k, 1, pi1_is_Z2=False, q=q)
    assert (top.c2, top.b2plus, top.b2minus) == (12 - k, b2plus, b2minus)
    # Euler number 2 - 2*b1 + b2 with b1 = 2q, and b2+ = 2*p_g + 1 with p_g = q
    assert 2 - 4 * q + top.b2plus + top.b2minus == top.c2


def test_topology_cover_needs_q_zero():
    with pytest.raises(DomainError):
        topology_report(1, 1, pi1_is_Z2=True, q=1)


def test_topology_requires_chi_one():
    with pytest.raises(DomainError):
        topology_report(3, 2, pi1_is_Z2=True)


def test_report_general_type_flag(corpus_results):
    for name, result in corpus_results.items():
        assert result.report.general_type, name


def test_report_text_stable(corpus_results):
    report = corpus_results["enriques-k1"].report
    assert report.to_text() == report.to_text()
    assert "K2_X=1" in report.to_text()
    assert "pi1=criterion-satisfied" in report.to_text()


FROZEN_PULLBACKS = {
    # independently derived with a separate exact-arithmetic prototype;
    # every non-contracted tracked curve of each example
    "enriques-k1": {
        "G4": Fraction(2, 3), "F": Fraction(2), "F2": Fraction(2),
        "e1": Fraction(1, 6), "e2": Fraction(1, 6), "e3": Fraction(1, 6),
        "e4": Fraction(1, 6), "e5": Fraction(1, 3),
    },
    "enriques-k2": {
        "E": Fraction(1, 2), "F2": Fraction(5, 3), "G1": Fraction(1, 6),
        "G9": Fraction(1, 2), "S2": Fraction(5, 2), "e2": Fraction(7, 12),
        "e6": Fraction(1, 3), "e7": Fraction(1, 3), "t3": Fraction(1, 12),
    },
    "enriques-k3-kondo2": {
        "E": Fraction(5, 7), "F2": Fraction(124, 39), "G1": Fraction(34, 39),
        "G7": Fraction(11, 13), "G8": Fraction(49, 39), "e12": Fraction(8, 39),
        "e2": Fraction(11, 21), "e3": Fraction(11, 21), "t6": Fraction(6, 91),
        "u2": Fraction(29, 91),
    },
    "enriques-k3-kondo7": {
        "E": Fraction(2, 3), "G6": Fraction(8, 7), "G8": Fraction(1, 3),
        "G9": Fraction(11, 7), "e1": Fraction(11, 21), "e2": Fraction(1, 2),
        "e3": Fraction(1, 2), "e4": Fraction(29, 42), "t5": Fraction(1, 42),
    },
    "enriques-k4": {
        "E": Fraction(65, 73), "F2": Fraction(4634, 1387), "G1": Fraction(14, 19),
        "G9": Fraction(2298, 1387), "e2": Fraction(873, 1387),
        "e3": Fraction(873, 1387), "e4": Fraction(1295, 1387),
        "t3": Fraction(22, 73), "u8": Fraction(1, 1387),
    },
    "enriques-k5-symplectic": {
        "S1": Fraction(1787, 302), "E1": Fraction(1, 2), "E2": Fraction(89, 151),
        "e3": Fraction(116, 151), "e4": Fraction(144, 151),
        "e5": Fraction(437, 604), "a3": Fraction(135, 604),
        "q4": Fraction(30, 151),
    },
}


def test_pullback_degrees_match_frozen_oracle(corpus_results):
    for name, expected in FROZEN_PULLBACKS.items():
        report = corpus_results[name].report
        got = {e.curve: e.value for e in report.ample.entries}
        assert got == expected, name


def test_public_views_agree_with_report(corpus_results):
    for name, result in corpus_results.items():
        final, plan, report = result.final, result.document.plan, result.report
        assert contract_invariants(final, plan) == (report.K2_X, report.chi, report.p_g), name
        crit = pi1_criterion(final, plan)
        assert (crit.indices, crit.gcd, crit.verdict) == (
            report.indices, report.gcd_indices, report.pi1_verdict), name
        assert ampleness_certificate(final, plan) == report.ample, name


def test_build_report_raises_plan_violations():
    cfg = chain_config([5])
    with pytest.raises(PlanInvalidError) as info:
        build_report(cfg, ContractionPlan(chains=(("Z0",),)))
    assert [v.kind for v in info.value.violations] == ["plan-smoothability"]


def test_pullback_requires_valid_plan():
    cfg = chain_config([5], extra=[("C", -2, 0, 0)], extra_pairs=[("C", "Z0", 1)])
    with pytest.raises(PlanInvalidError):
        pullbacks(cfg, ContractionPlan(chains=(("Z0",),)))


def _minus_four_and_minus_three(chains):
    """Kind "other" with chi = 1 and K^2 = -1: a (-4)-curve A (K.A = 2) and a
    disjoint (-3)-curve B (K.B = 1), with the given plan chains."""
    def curve(name, self_int):
        return {"name": name, "self": self_int, "genus": 0, "Kdeg": -2 - self_int, "tags": []}

    doc = parse({"surface": {"kind": "other", "chi": 1, "K2": -1, "K_num_trivial": False},
                 "curves": [curve("A", -4), curve("B", -3)],
                 "plan": {"chains": chains}})
    return build_report(doc.configuration, doc.plan)


def test_a_plan_with_k2_zero_is_not_of_general_type():
    # contracting [4] adds 1 to K^2 = -1; B stays positive, but K^2 = 0
    # is not big
    lines = _minus_four_and_minus_three([["A"]]).to_text().splitlines()
    assert "K2_X=0" in lines
    assert "ample.B=1 dp=0" in lines
    assert "general_type=no" in lines


def test_an_empty_plan_lists_k_dot_c_for_every_curve():
    report = _minus_four_and_minus_three([])
    assert report.K2_X == -1 and report.chains == () and report.indices == ()
    assert [(e.curve, e.K_deg, e.dp_term, e.value) for e in report.ample.entries] == [
        ("A", 2, 0, 2), ("B", 1, 0, 1)]
    assert not report.general_type
