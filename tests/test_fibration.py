import pytest

import documents
from qgsurf.errors import UnknownTagError
from qgsurf.fibration import (
    EulerCheck,
    FiberSpec,
    FibrationData,
    euler_number,
    euler_sum_check,
    i9_forces_i1_lint,
    parse_tag,
    two_section_incidence_check,
)
from qgsurf import config as config_mod
from qgsurf.config import SurfaceInvariants

ENRIQUES = SurfaceInvariants(kind="enriques", chi=1, K2=0, K_num_trivial=True)


@pytest.mark.parametrize("tag, value", [
    ("I1", 1), ("I9", 9), ("I0*", 6), ("I4*", 10),
    ("II", 2), ("III", 3), ("IV", 4),
    ("IV*", 8), ("III*", 9), ("II*", 10),
    ("2I1", 1), ("2I9", 9),
])
def test_euler_numbers(tag, value):
    assert euler_number(tag) == value


@pytest.mark.parametrize("bad", ["V", "I", "2II", "2I0*", "I-3", "", "X9"])
def test_unknown_tags_rejected(bad):
    with pytest.raises(UnknownTagError):
        euler_number(bad)


def test_parse_tag_multiplicity():
    assert parse_tag("2I1") == ("I1", 2)
    assert parse_tag("I9") == ("I9", 1)


def test_zero_padded_tags_give_the_reduced_type():
    assert parse_tag("2I09") == ("I9", 2)
    assert parse_tag("I01") == ("I1", 1)
    assert parse_tag("I01*") == ("I1*", 1)
    assert parse_tag("I00*") == ("I0*", 1)
    assert parse_tag("I" + "0" * 5000 + "9") == ("I9", 1)


@pytest.mark.parametrize("bad", ["I\u0669", "I\uff19", "2I\u0669", "I\u0669*",
                                 "I" + "9" * 5000, "2I" + "9" * 5000, "I" + "9" * 5000 + "*"],
                         ids=["arabic-indic", "fullwidth", "multiple-arabic-indic",
                              "star-arabic-indic", "long", "multiple-long", "star-long"])
def test_tag_index_is_ascii_digits_that_int_reads(bad):
    # "I\u0669" once parsed as a second spelling of I9, and a 5000-digit
    # index raised int()'s ValueError instead of an input error
    with pytest.raises(UnknownTagError):
        parse_tag(bad)


def test_verify_reads_a_zero_padded_i9_as_i9(tmp_path):
    """Every rule compares the reduced type as a string.  Before tags were
    spelled one way, a copy of k1 with these edits (one I1 dropped, the I9
    typed I09) printed no advisory, and its fibers were written back as I09."""
    doc = documents.base()
    del doc["expect"]
    doc["fibration"]["fibers"].pop()
    doc["fibration"]["fibers"][0]["type"] = "I09"
    assert config_mod.parse(doc).configuration.fibration.fibers[0].tag == "I9"
    code, out, _ = documents.run(tmp_path, doc)
    assert code == 0
    assert "advisory=an I9 fiber implies three I1-type fibers; only 2 declared" in (
        out.splitlines())


def test_a_fiber_listing_a_component_twice_fails_only_the_repeat_rule(tmp_path):
    """A fiber is fully tracked when it lists each of its type's components
    once.  Before the 2-section check shared that definition, a copy of k1
    with this edit (G1 listed twice, G9 left out) also printed a two-section
    violation for S2, which meets G9 there as it does in the base."""
    doc = documents.base()
    doc["fibration"]["fibers"][0]["components"][-1] = "G1"
    cfg = config_mod.parse_unvalidated(doc).configuration
    assert not cfg.fibration.fibers[0].is_fully_tracked()
    assert two_section_incidence_check(cfg) == []
    code, out, _ = documents.run(tmp_path, doc)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("violation=")] == [
        "violation=base: fibration[I9]: components repeated within the fiber: ['G1']"]


def fib(*tags):
    return FibrationData(fibers=tuple(
        FiberSpec(type=parse_tag(t)[0], multiplicity=parse_tag(t)[1], components=())
        for t in tags))


def test_euler_sum_exact():
    check = euler_sum_check(fib("I9", "I1", "I1", "I1"), chi=1)
    assert check == EulerCheck(total=12, target=12, verdict=True, deficit=0, note="")


def test_euler_sum_deficit_flagged():
    check = euler_sum_check(fib("I9"), chi=1)
    assert not check.verdict
    assert check.deficit == 3
    assert check.note == "unlisted fibers"


def test_euler_sum_generic_elliptic_k3():
    check = euler_sum_check(fib(*["I1"] * 24), chi=2)
    assert check.verdict and check.deficit == 0


def test_euler_sum_overdeclared():
    check = euler_sum_check(fib("I9", "I9"), chi=1)
    assert check.deficit == -6 and not check.verdict


def test_euler_sum_permutation_invariant():
    tags = ["I9", "I1", "II", "I0*"]
    a = euler_sum_check(fib(*tags), chi=2)
    b = euler_sum_check(fib(*reversed(tags)), chi=2)
    assert a == b


def _incidence_config(s_hits, fiber_mult=1):
    """One 2-section S against a fully tracked I2 fiber with components A, B."""
    doc = {
        "surface": {"kind": "other", "chi": 1, "K2": 0, "K_num_trivial": False},
        "curves": [
            {"name": "S", "self": -2, "genus": 0, "Kdeg": 0, "tags": ["two-section"]},
            {"name": "A", "self": -2, "genus": 0, "Kdeg": 0, "tags": []},
            {"name": "B", "self": -2, "genus": 0, "Kdeg": 0, "tags": []},
        ],
        "pairing": [["A", "B", 2]] + [["S", n, v] for n, v in s_hits],
        "fibration": {
            "fibers": [{"type": "2I2" if fiber_mult == 2 else "I2",
                        "multiplicity": fiber_mult, "components": ["A", "B"]}],
            "two_sections": ["S"],
        },
    }
    return config_mod.parse(doc).configuration


def test_two_section_degree_two_clean():
    cfg = _incidence_config([("A", 1), ("B", 1)])
    assert two_section_incidence_check(cfg) == []


def test_two_section_single_hit_flagged():
    cfg = _incidence_config([("A", 1)])
    violations = two_section_incidence_check(cfg)
    assert len(violations) == 1
    assert "expected 2" in violations[0].detail


def test_two_section_multiple_fiber_wants_one():
    cfg = _incidence_config([("A", 1)], fiber_mult=2)
    assert two_section_incidence_check(cfg) == []
    cfg = _incidence_config([("A", 1), ("B", 1)], fiber_mult=2)
    violations = two_section_incidence_check(cfg)
    assert len(violations) == 1 and "expected 1" in violations[0].detail


def test_two_section_partial_fiber_skipped():
    doc = {
        "surface": {"kind": "other", "chi": 1, "K2": 0, "K_num_trivial": False},
        "curves": [
            {"name": "S", "self": -2, "genus": 0, "Kdeg": 0, "tags": []},
            {"name": "A", "self": -2, "genus": 0, "Kdeg": 0, "tags": []},
        ],
        "pairing": [["S", "A", 1]],
        "fibration": {
            "fibers": [{"type": "I3", "multiplicity": 1, "components": ["A"]}],
            "two_sections": ["S"],
        },
    }
    cfg = config_mod.parse(doc).configuration
    assert two_section_incidence_check(cfg) == []


def _i0_star_with_two_section():
    """A K3 surface with a fully tracked I0* fiber, centre C0 meeting C1..C4,
    and a 2-section S meeting C0 once: S.F = S.(2*C0 + C1 + ... + C4) = 2."""
    def curve(name):
        return {"name": name, "self": -2, "genus": 0, "Kdeg": 0, "tags": []}

    legs = ["C1", "C2", "C3", "C4"]
    return {
        "surface": {"kind": "k3", "chi": 2, "K2": 0, "K_num_trivial": True},
        "curves": [curve(c) for c in ["C0"] + legs + ["S"]],
        "pairing": [["C0", c, 1] for c in legs] + [["S", "C0", 1]],
        "fibration": {
            "fibers": [{"type": "I0*", "components": ["C0"] + legs}],
            "two_sections": ["S"],
        },
    }


def test_two_section_meets_an_i0_star_fiber_with_multiplicities(tmp_path):
    """The centre of an I0* has multiplicity 2, so S.F = 2 when S meets it
    once.  Before the fiber rule gave multiplicities, a starred fiber was
    not held to the 2-section rule; summed without them, this document had
    printed a two-section violation and exited 1."""
    doc = _i0_star_with_two_section()
    assert two_section_incidence_check(config_mod.parse(doc).configuration) == []
    code, out, _ = documents.run(tmp_path, doc)
    assert code == 0
    assert not [x for x in out.splitlines() if x.startswith("violation=")]
    # S on a leg instead: S.F = 1
    doc["pairing"][-1] = ["S", "C1", 1]
    assert [str(v) for v in two_section_incidence_check(config_mod.parse(doc).configuration)] == [
        "two-section[S.I0*]: total intersection 1, expected 2"]


def test_corpus_incidence_clean(corpus_results):
    for name, result in corpus_results.items():
        cfg = result.document.configuration
        assert two_section_incidence_check(cfg) == [], name


def test_i9_lint_three_nodal_fibers_fine():
    assert i9_forces_i1_lint(fib("I9", "I1", "I1", "I1"), ENRIQUES) == []


def test_i9_lint_underdeclared():
    out = i9_forces_i1_lint(fib("I9", "I1"), ENRIQUES)
    assert len(out) == 1 and "three I1" in out[0]


def test_i9_lint_vacuous_without_i9():
    assert i9_forces_i1_lint(fib("I8", "I1"), ENRIQUES) == []


def test_i9_lint_only_for_enriques_or_rational():
    k3 = SurfaceInvariants(kind="k3", chi=2, K2=0, K_num_trivial=True)
    e1 = SurfaceInvariants(kind="e", chi=1, K2=0, K_num_trivial=False, n=1)
    assert i9_forces_i1_lint(fib("I9", "I1"), k3) == []
    assert i9_forces_i1_lint(fib("I9", "I1"), e1) != []


def test_corpus_euler_deficit_zero(corpus_results):
    for name, result in corpus_results.items():
        assert result.euler.deficit == 0, name


def test_fibration_validate_component_overlap():
    doc = {
        "surface": {"kind": "other", "chi": 1, "K2": 0, "K_num_trivial": False},
        "curves": [{"name": "A", "self": -2, "genus": 0, "Kdeg": 0, "tags": []}],
        "fibration": {
            "fibers": [{"type": "I2", "multiplicity": 1, "components": ["A"]},
                       {"type": "I3", "multiplicity": 1, "components": ["A"]}],
        },
    }
    cfg = config_mod.parse_unvalidated(doc).configuration
    from qgsurf.config import validate
    assert any("shared across fibers" in v.detail for v in validate(cfg))


@pytest.mark.parametrize("a, b, line", [
    ("F", "G5", "violation=base: fibration[G5.F]: components of distinct fibers I9 and I1 "
                "pair to 1, not 0"),
    ("F", "F2", "violation=base: fibration[F.F2]: components of distinct fibers I1 and I1 "
                "pair to 1, not 0"),
])
def test_verify_rejects_distinct_fibers_that_meet(tmp_path, a, b, line):
    """Distinct fibers are disjoint.  Before the rule, a copy of k1 whose F
    meets G5 once printed status=pass with ample.F=7/3.  The base tracks one
    nodal fiber; F2, a second one in an untracked I1, passes on its own."""
    doc = documents.base()
    doc["curves"].append({"name": "F2", "self": 0, "genus": 1, "Kdeg": 0, "tags": ["nodal-fiber"]})
    doc["pairing"] += [["S1", "F2", 2], ["S2", "F2", 2]]
    doc["fibration"]["fibers"][2]["components"] = ["F2"]
    doc["pairing"].append([a, b, 1])
    doc["points"].append({"name": "X", "branches": [[a, 1], [b, 1]]})
    del doc["expect"]
    code, out, _ = documents.run(tmp_path, doc)
    assert code == 1
    lines = out.splitlines()
    assert [x for x in lines if x.startswith("violation=")] == [line]
    assert lines[-1] == "status=fail"


def test_fibration_validate_multiple_fiber_reduced_type():
    cfg_doc = {
        "surface": {"kind": "enriques", "chi": 1, "K2": 0, "K_num_trivial": True},
        "curves": [{"name": "A", "self": -2, "genus": 0, "Kdeg": 0, "tags": []}],
    }
    bad = FibrationData(fibers=(FiberSpec(type="IV", multiplicity=2, components=()),))
    cfg = config_mod.parse_unvalidated(cfg_doc).configuration
    violations = bad.validate(cfg)
    assert any("reduced type I_n" in v.detail for v in violations)


def test_fibration_validate_two_multiple_fibers():
    doc = {
        "surface": {"kind": "enriques", "chi": 1, "K2": 0, "K_num_trivial": True},
        "curves": [{"name": "A", "self": -2, "genus": 0, "Kdeg": 0, "tags": []}],
        "fibration": {
            "fibers": [{"type": "2I1", "multiplicity": 2, "components": []},
                       {"type": "2I2", "multiplicity": 2, "components": []}],
        },
    }
    cfg = config_mod.parse_unvalidated(doc).configuration
    assert [v for v in cfg.fibration.validate(cfg) if v.subject == "multiple-fibers"] == []


def test_fibration_validate_too_many_multiple_fibers():
    doc = {
        "surface": {"kind": "enriques", "chi": 1, "K2": 0, "K_num_trivial": True},
        "curves": [{"name": "A", "self": -2, "genus": 0, "Kdeg": 0, "tags": []}],
        "fibration": {
            "fibers": [{"type": "2I1", "multiplicity": 2, "components": []},
                       {"type": "2I1", "multiplicity": 2, "components": []},
                       {"type": "2I2", "multiplicity": 2, "components": []}],
        },
    }
    cfg = config_mod.parse_unvalidated(doc).configuration
    from qgsurf.config import validate
    assert any("at most two" in v.detail for v in validate(cfg))


@pytest.mark.parametrize("surface", [
    {"kind": "e", "n": 1, "chi": 1, "K2": 0, "K_num_trivial": False},
    {"kind": "e", "n": 3, "chi": 3, "K2": 0, "K_num_trivial": False},
    {"kind": "k3", "chi": 2, "K2": 0, "K_num_trivial": True},
], ids=["e1", "e3", "k3"])
def test_verify_rejects_a_multiple_fiber_on_k3_and_e_n(surface, tmp_path):
    """K = (chi - 2)F + sum (m_i - 1)F_i leaves no multiple fiber where
    K = 0 and chi = 2, and E(n) has a section, which meets every fiber once.
    Before the rule each of these printed status=pass."""
    doc = {"surface": surface, "curves": [_NODAL],
           "fibration": {"fibers": [{"type": "2I1", "components": ["N"]}]}}
    code, out, _ = documents.run(tmp_path, doc)
    assert code == 1
    lines = out.splitlines()
    assert [x for x in lines if x.startswith("violation=")] == [
        "violation=base: fibration[multiple-fibers]: 1 multiplicity-2 fibers declared; "
        "none exist"]
    assert lines[-1] == "status=fail"


@pytest.mark.parametrize("bad", ["I0", "2I0", "I00", " I0 "])
def test_smooth_fiber_tag_rejected(bad):
    with pytest.raises(UnknownTagError):
        parse_tag(bad)


def test_document_with_smooth_fiber_is_an_input_error(tmp_path):
    doc = documents.base()
    doc["fibration"]["fibers"].append({"type": "I0", "components": []})
    code, out, err = documents.run(tmp_path, doc)
    assert (code, out) == (2, "")
    assert "'I0'" in err


@pytest.mark.parametrize("surface, fibers, excess", [
    ({"kind": "enriques", "chi": 1, "K_num_trivial": True}, ["I9", "I1", "I1", "I1"], None),
    ({"kind": "enriques", "chi": 1, "K_num_trivial": True}, ["I9", "I2"], (9, 8)),
    ({"kind": "k3", "chi": 2, "K_num_trivial": True}, ["I19", "I1"], None),
    ({"kind": "k3", "chi": 2, "K_num_trivial": True}, ["I19", "I2"], (19, 18)),
    ({"kind": "e", "n": 1, "chi": 1, "K_num_trivial": False}, ["II*", "I1", "I1"], None),
    ({"kind": "e", "n": 1, "chi": 1, "K_num_trivial": False}, ["II*", "I2"], (9, 8)),
    ({"kind": "e", "n": 3, "chi": 3, "K_num_trivial": False}, ["I20", "I10"], None),
    ({"kind": "e", "n": 3, "chi": 3, "K_num_trivial": False}, ["I20", "I11"], (29, 28)),
    ({"kind": "other", "chi": 1, "K_num_trivial": False}, ["I19", "I19"], None),
], ids=["enriques-8", "enriques-9", "k3-18", "k3-19", "e1-8", "e1-9", "e3-28", "e3-29",
        "other"])
def test_fibration_validate_shioda_tate_bound(surface, fibers, excess):
    """Sum of (components - 1) over the fibers is at most rho_max - 2: 8 on
    an Enriques surface and on E(1), 18 on a K3 surface, 10n - 2 on E(n),
    and no bound on kind other."""
    doc = {"surface": {**surface, "K2": 0},
           "curves": [{"name": "A", "self": -2, "genus": 0, "Kdeg": 0, "tags": []}]}
    cfg = config_mod.parse_unvalidated(doc).configuration
    fib = FibrationData(fibers=tuple(FiberSpec(type=t, multiplicity=1, components=())
                                     for t in fibers))
    found = [str(v) for v in fib.validate(cfg) if v.subject == "shioda-tate"]
    assert found == ([] if excess is None else [
        f"fibration[shioda-tate]: sum of (components - 1) over the fibers is {excess[0]}, "
        f"above rho_max - 2 = {excess[1]}"])


def test_verify_rejects_fibers_beyond_the_shioda_tate_bound(tmp_path):
    """A copy of the base whose fibers are I9 + I3: its Euler sum is 12,
    but 8 + 2 = 10 components beyond one per fiber exceed rho - 2 = 8.
    Before the rule the same edit of k1 printed status=pass."""
    doc = documents.base()
    i9 = doc["fibration"]["fibers"][0]
    doc["fibration"]["fibers"] = [i9, {"type": "I3", "components": []}]
    del doc["expect"]
    code, out, _ = documents.run(tmp_path, doc)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "euler_sum=12 target=12 deficit=0"
    assert [x for x in lines if x.startswith("violation=")] == [
        "violation=base: fibration[shioda-tate]: sum of (components - 1) over the fibers "
        "is 10, above rho_max - 2 = 8"]
    assert lines[-1] == "status=fail"


def _rational(name):
    return {"name": name, "self": -2, "genus": 0, "Kdeg": 0, "tags": []}


_ENRIQUES = {"kind": "enriques", "chi": 1, "K2": 0, "K_num_trivial": True}

# A, B, C in a chain (A.C = 0) declared as a fully tracked I3
_I3_CHAIN = {"surface": _ENRIQUES, "curves": [_rational(c) for c in "ABC"],
             "pairing": [["A", "B", 1], ["B", "C", 1]],
             "fibration": {"fibers": [{"type": "I3", "components": ["A", "B", "C"]}]}}
# one smooth rational (-2)-curve declared as a fully tracked I1
_I1_RATIONAL = {"surface": _ENRIQUES, "curves": [_rational("A")],
                "fibration": {"fibers": [{"type": "I1", "components": ["A"]}]}}
# an I3 cycle and an I2 pair with a curve S that meets the I3 only
_TWO_CLASSES = {"surface": _ENRIQUES, "curves": [_rational(c) for c in "ABCDES"],
                "pairing": [["A", "B", 1], ["B", "C", 1], ["A", "C", 1], ["D", "E", 2],
                            ["S", "A", 1]],
                "fibration": {"fibers": [{"type": "I3", "components": ["A", "B", "C"]},
                                         {"type": "I2", "components": ["D", "E"]}]}}

_FIBER_RULES = [
    pytest.param(_I3_CHAIN, "fibration[I3]: not a Kodaira I3: A pairs -1 with the fiber "
                            "class, not 0", id="i3-chain"),
    pytest.param(_I1_RATIONAL, "fibration[I1]: not a Kodaira I1: A has genus 0 and "
                               "self-intersection -2, not 1 and 0", id="i1-rational"),
    pytest.param(_TWO_CLASSES, "fibration[fiber-class]: fibers I3 and I2 pair to 1 and 0 "
                               "with S, so they are not one class", id="two-classes"),
]


@pytest.mark.parametrize("doc, line", _FIBER_RULES)
def test_validate_rejects_fibers_that_are_not_kodaira_or_not_one_class(doc, line):
    cfg = config_mod.parse_unvalidated(doc).configuration
    assert [str(v) for v in config_mod.validate(cfg)] == [line]


@pytest.mark.parametrize("doc, line", _FIBER_RULES)
def test_verify_rejects_fibers_that_are_not_kodaira_or_not_one_class(doc, line, tmp_path):
    """Before the two rules each of these printed status=pass."""
    code, out, _ = documents.run(tmp_path, doc)
    assert code == 1
    lines = out.splitlines()
    assert [x for x in lines if x.startswith("violation=")] == [f"violation=base: {line}"]
    assert lines[-1] == "status=fail"


def _fibration_doc(fibers, curves, pairing=()):
    return {"surface": {"kind": "other", "chi": 1, "K2": 0, "K_num_trivial": False},
            "curves": curves, "pairing": [list(p) for p in pairing],
            "fibration": {"fibers": fibers}}


_NODAL = {"name": "N", "self": 0, "genus": 1, "Kdeg": 0, "tags": []}


@pytest.mark.parametrize("fibers, curves, pairing, found", [
    # Kodaira's I_n for n = 1, 2, 3, 4, as a multiple fiber too
    ([{"type": "I1", "components": ["N"]}], [_NODAL], (), []),
    ([{"type": "2I1", "components": ["N"]}], [_NODAL], (), []),
    ([{"type": "I2", "components": ["A", "B"]}], [_rational("A"), _rational("B")],
     [("A", "B", 2)], []),
    ([{"type": "I3", "components": ["A", "B", "C"]}], [_rational(c) for c in "ABC"],
     [("A", "B", 1), ("B", "C", 1), ("C", "A", 1)], []),
    ([{"type": "2I4", "components": ["A", "B", "C", "D"]}], [_rational(c) for c in "ABCD"],
     [("A", "B", 1), ("B", "C", 1), ("C", "D", 1), ("D", "A", 1)], []),
    # a partly tracked fiber is not checked
    ([{"type": "I3", "components": ["A"]}], [_rational("A")], (), []),
    # an I2 that lists three components
    ([{"type": "I2", "components": ["A", "B", "C"]}], [_rational(c) for c in "ABC"],
     [("A", "B", 2)], ["fibration[I2]: 3 components exceed the type's 2"]),
    # a III whose curves do not meet
    ([{"type": "III", "components": ["A", "B"]}], [_rational("A"), _rational("B")], (),
     ["fibration[III]: not a Kodaira III: A pairs -2 with the fiber class, not 0"]),
    # I2 whose curves pair 1
    ([{"type": "I2", "components": ["A", "B"]}], [_rational("A"), _rational("B")],
     [("A", "B", 1)], ["fibration[I2]: not a Kodaira I2: A pairs -1 with the fiber class, "
                       "not 0"]),
    # a (-3)-curve in a cycle
    ([{"type": "I3", "components": ["A", "B", "C"]}],
     [_rational("A"), _rational("B"), {**_rational("C"), "self": -3, "Kdeg": 1}],
     [("A", "B", 1), ("B", "C", 1), ("C", "A", 1)],
     ["fibration[I3]: not a Kodaira I3: C is not a smooth rational (-2)-curve"]),
    # two components that pair 2 inside an I3
    ([{"type": "I3", "components": ["A", "B", "C"]}], [_rational(c) for c in "ABC"],
     [("A", "B", 2), ("B", "C", 1), ("C", "A", 1)],
     ["fibration[I3]: not a Kodaira I3: A pairs 1 with the fiber class, not 0"]),
    # two disjoint 3-cycles declared as one I6
    ([{"type": "I6", "components": list("ABCDEF")}], [_rational(c) for c in "ABCDEF"],
     [("A", "B", 1), ("B", "C", 1), ("C", "A", 1), ("D", "E", 1), ("E", "F", 1), ("F", "D", 1)],
     ["fibration[I6]: not a Kodaira I6: the components are not connected"]),
    # a 2I2 and an I1 with a curve S: 2*(A + B).S = 2 = N.S, one class
    ([{"type": "2I2", "components": ["A", "B"]}, {"type": "I1", "components": ["N"]}],
     [_rational("A"), _rational("B"), _NODAL, _rational("S")],
     [("A", "B", 2), ("S", "A", 1), ("S", "N", 2)], []),
    # the same with N.S = 1
    ([{"type": "2I2", "components": ["A", "B"]}, {"type": "I1", "components": ["N"]}],
     [_rational("A"), _rational("B"), _NODAL, _rational("S")],
     [("A", "B", 2), ("S", "A", 1), ("S", "N", 1)],
     ["fibration[fiber-class]: fibers 2I2 and I1 pair to 2 and 1 with S, "
      "so they are not one class"]),
    # an I0* and an I1: the class of I0* is 2C + A1 + ... + A4, which pairs
    # 2 with S as N does, though C + A1 + ... + A4 pairs 1
    ([{"type": "I0*", "components": ["C", "A1", "A2", "A3", "A4"]},
      {"type": "I1", "components": ["N"]}],
     [_rational(c) for c in ("C", "A1", "A2", "A3", "A4", "S")] + [_NODAL],
     [("C", a, 1) for a in ("A1", "A2", "A3", "A4")] + [("S", "C", 1), ("S", "N", 2)], []),
    # the same with N.S = 1
    ([{"type": "I0*", "components": ["C", "A1", "A2", "A3", "A4"]},
      {"type": "I1", "components": ["N"]}],
     [_rational(c) for c in ("C", "A1", "A2", "A3", "A4", "S")] + [_NODAL],
     [("C", a, 1) for a in ("A1", "A2", "A3", "A4")] + [("S", "C", 1), ("S", "N", 1)],
     ["fibration[fiber-class]: fibers I0* and I1 pair to 2 and 1 with S, "
      "so they are not one class"]),
], ids=["I1", "2I1", "I2", "I3", "2I4", "partial", "too-many-components", "additive",
        "I2-pair-1", "I3-minus-3", "I3-pair-2", "I6-two-cycles", "one-class", "two-classes",
        "starred", "starred-two-classes"])
def test_fibration_validate_kodaira_type_and_one_class(fibers, curves, pairing, found):
    cfg = config_mod.parse_unvalidated(_fibration_doc(fibers, curves, pairing)).configuration
    assert [str(v) for v in cfg.fibration.validate(cfg)] == found


def _chain(names):
    return [(a, b, 1) for a, b in zip(names, names[1:])]


def _cycle(names):
    return _chain(names) + [(names[-1], names[0], 1)]


# Kodaira's fibers as the extended Dynkin diagrams of their components
_D4 = ["C0", "C1", "C2", "C3", "C4"]                 # I0*: centre C0, multiplicity 2
_D5 = ["A", "B", "A1", "A2", "B1", "B2"]             # I1*: A, B of multiplicity 2
_E6 = ["C", "A1", "A2", "B1", "B2", "D1", "D2"]      # IV*: centre C, multiplicity 3
_E7 = ["L3", "L2", "L1", "C", "R1", "R2", "R3", "P"]  # III*: centre C, multiplicity 4
_E8 = ["C", "P", "A1", "A2", "B1", "B2", "B3", "B4", "B5"]  # II*: centre C, multiplicity 6
_KODAIRA_FIBERS = {
    "I1": ([_NODAL], []),
    "II": ([_NODAL], []),
    "I4": ([_rational(c) for c in "ABCD"], _cycle("ABCD")),
    "2I3": ([_rational(c) for c in "ABC"], _cycle("ABC")),
    "III": ([_rational(c) for c in "AB"], [("A", "B", 2)]),
    "IV": ([_rational(c) for c in "ABC"], _cycle("ABC")),
    "I0*": ([_rational(c) for c in _D4], [("C0", c, 1) for c in _D4[1:]]),
    "I1*": ([_rational(c) for c in _D5],
            [("A", "B", 1), ("A", "A1", 1), ("A", "A2", 1), ("B", "B1", 1), ("B", "B2", 1)]),
    "IV*": ([_rational(c) for c in _E6],
            _chain(["A2", "A1", "C", "B1", "B2"]) + _chain(["C", "D1", "D2"])),
    "III*": ([_rational(c) for c in _E7], _chain(_E7[:7]) + [("C", "P", 1)]),
    "II*": ([_rational(c) for c in _E8],
            [("C", "P", 1)] + _chain(["A2", "A1", "C", "B1", "B2", "B3", "B4", "B5"])),
}
_NO_KERNEL = "the kernel of the components' pairing is not spanned by a positive vector"
_SQUARE_MINUS_ONE = {**_NODAL, "self": -1, "Kdeg": 1}  # genus 1, so adjunction holds


def _fiber_doc(tag, curves, pairing):
    return _fibration_doc([{"type": tag, "components": [c["name"] for c in curves]}],
                          curves, pairing)


def _near_miss(tag, a, b, value):
    """The accepted fiber of type ``tag`` with a.b set to ``value``."""
    curves, pairing = _KODAIRA_FIBERS[tag]
    pairing = [p for p in pairing if {p[0], p[1]} != {a, b}] + ([(a, b, value)] if value else [])
    return _fiber_doc(tag, curves, pairing)


_NEAR_MISSES = [
    pytest.param(_fiber_doc("I1", [_SQUARE_MINUS_ONE], []),
                 "N has genus 1 and self-intersection -1, not 1 and 0", id="I1"),
    pytest.param(_fiber_doc("II", [_SQUARE_MINUS_ONE], []),
                 "N has genus 1 and self-intersection -1, not 1 and 0", id="II"),
    pytest.param(_near_miss("I4", "D", "A", 0), "A pairs -1 with the fiber class, not 0",
                 id="I4"),
    pytest.param(_near_miss("2I3", "A", "B", 2), "A pairs 1 with the fiber class, not 0",
                 id="2I3"),
    pytest.param(_near_miss("III", "A", "B", 1), "A pairs -1 with the fiber class, not 0",
                 id="III"),
    pytest.param(_near_miss("IV", "A", "B", 0), "A pairs -1 with the fiber class, not 0",
                 id="IV"),
    pytest.param(_near_miss("I0*", "C1", "C2", 1), _NO_KERNEL, id="I0*"),
    pytest.param(_near_miss("I1*", "B", "B2", 0), _NO_KERNEL, id="I1*"),
    pytest.param(_near_miss("IV*", "A2", "B2", 1), _NO_KERNEL, id="IV*"),
    pytest.param(_near_miss("III*", "C", "P", 0), _NO_KERNEL, id="III*"),
    pytest.param(_near_miss("II*", "B5", "P", 1), _NO_KERNEL, id="II*"),
    # Ã4, a 5-cycle, has the kernel vector (1, ..., 1): all multiplicities 1
    pytest.param(_fiber_doc("I0*", _KODAIRA_FIBERS["I0*"][0], _cycle(_D4)),
                 "the largest multiplicity is 1, not 2", id="I0*-five-cycle"),
    # A9, a chain of nine curves, is negative definite
    pytest.param(_fiber_doc("II*", _KODAIRA_FIBERS["II*"][0], _chain(_E8)), _NO_KERNEL,
                 id="II*-A9-chain"),
    # D̃4 and an isolated curve: a kernel vector with a 0 on that curve
    pytest.param(_fiber_doc("I1*", _KODAIRA_FIBERS["I1*"][0],
                            [("A", c, 1) for c in ("B", "A1", "A2", "B1")]), _NO_KERNEL,
                 id="I1*-D4-and-a-curve"),
]


@pytest.mark.parametrize("tag", list(_KODAIRA_FIBERS))
def test_verify_accepts_each_kodaira_fiber(tag, tmp_path):
    code, out, _ = documents.run(tmp_path, _fiber_doc(tag, *_KODAIRA_FIBERS[tag]))
    assert code == 0
    assert not [x for x in out.splitlines() if x.startswith("violation=")]


@pytest.mark.parametrize("doc, reason", _NEAR_MISSES)
def test_verify_rejects_a_near_miss_of_each_kodaira_fiber(doc, reason, tmp_path):
    """One wrong pairing in each accepted fiber, and three graphs with the
    right component count that are not the type's diagram."""
    code, out, _ = documents.run(tmp_path, doc)
    assert code == 1
    (fiber,) = doc["fibration"]["fibers"]
    tag = fiber["type"]
    assert [x for x in out.splitlines() if x.startswith("violation=")] == [
        f"violation=base: fibration[{tag}]: not a Kodaira {tag.lstrip('2')}: {reason}"]
