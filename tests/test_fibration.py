import io
import json

import pytest

from qgsurf import cli
from qgsurf.corpus import builtin
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


def test_verify_reads_a_zero_padded_i9_as_i9(tmp_path):
    """Every rule compares the reduced type as a string.  Before tags were
    spelled one way, this copy of k1 (one I1 dropped, the I9 typed I09)
    printed no advisory, and its fibers were written back as I09."""
    doc = builtin("enriques-k1")
    del doc["expect"]
    doc["fibration"]["fibers"].pop()
    doc["fibration"]["fibers"][0]["type"] = "I09"
    assert config_mod.parse(doc).configuration.fibration.fibers[0].tag == "I9"
    path = tmp_path / "i09.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    assert cli.run(["verify", str(path)], out=out) == 0
    assert "advisory=an I9 fiber implies three I1-type fibers; only 2 declared" in (
        out.getvalue().splitlines())


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


def test_two_section_starred_fiber_skipped(tmp_path):
    """The data give no component multiplicities, so a starred fiber is not
    held to the 2-section rule.  Summing the pairings without them, this
    document printed a two-section violation and exited 1."""
    doc = _i0_star_with_two_section()
    assert two_section_incidence_check(config_mod.parse(doc).configuration) == []
    path = tmp_path / "i0-star.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    assert cli.run(["verify", str(path)], out=out) == 0
    assert not [x for x in out.getvalue().splitlines() if x.startswith("violation=")]


def test_corpus_incidence_clean(corpus_results):
    for name, result in corpus_results.items():
        cfg = result.document.configuration
        assert two_section_incidence_check(cfg) == [], name


def test_i9_lint_three_nodal_fibers_fine():
    assert i9_forces_i1_lint(fib("I9", "I1", "I1", "I1"), "enriques") == []


def test_i9_lint_underdeclared():
    out = i9_forces_i1_lint(fib("I9", "I1"), "enriques")
    assert len(out) == 1 and "three I1" in out[0]


def test_i9_lint_vacuous_without_i9():
    assert i9_forces_i1_lint(fib("I8", "I1"), "enriques") == []


def test_i9_lint_only_for_enriques_or_rational():
    assert i9_forces_i1_lint(fib("I9", "I1"), "k3") == []
    assert i9_forces_i1_lint(fib("I9", "I1"), "e", chi=1) != []


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


def test_fiber_repeating_a_component_fails(tmp_path):
    # nine names for I9's nine components, but G2 twice and G9 missing: the
    # fiber must not count as fully tracked with G2 counted twice
    doc = builtin("enriques-k1")
    doc["fibration"]["fibers"][0]["components"][8] = "G2"
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    assert cli.run(["verify", str(path)], out=out) == 1
    assert "violation=base: fibration[I9]: components repeated within the fiber: ['G2']" in out.getvalue()


@pytest.mark.parametrize("a, b, line", [
    ("F", "G5", "violation=base: fibration[G5.F]: components of distinct fibers I9 and I1 "
                "pair to 1, not 0"),
    ("F", "F2", "violation=base: fibration[F.F2]: components of distinct fibers I1 and I1 "
                "pair to 1, not 0"),
])
def test_verify_rejects_distinct_fibers_that_meet(tmp_path, a, b, line):
    """Distinct fibers are disjoint.  Before the rule, a copy of k1 whose F
    meets G5 once printed status=pass with ample.F=7/3."""
    doc = builtin("enriques-k1")
    doc["pairing"].append([a, b, 1])
    doc["points"].append({"name": "X", "branches": [[a, 1], [b, 1]]})
    del doc["expect"]
    path = tmp_path / "fibers-meet.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    assert cli.run(["verify", str(path)], out=out) == 1
    lines = out.getvalue().splitlines()
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


@pytest.mark.parametrize("bad", ["I0", "2I0", "I00", " I0 "])
def test_smooth_fiber_tag_rejected(bad):
    with pytest.raises(UnknownTagError):
        parse_tag(bad)


def test_document_with_smooth_fiber_is_an_input_error(tmp_path, capsys):
    doc = builtin("enriques-k1")
    doc["fibration"]["fibers"].append({"type": "I0", "components": []})
    path = tmp_path / "i0.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    assert cli.run(["verify", str(path)], out=out) == 2
    assert out.getvalue() == ""
    assert "'I0'" in capsys.readouterr().err


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
    """An Enriques mutant of k1 whose fibers are I9 + I3: its Euler sum is
    12, but 8 + 2 = 10 components beyond one per fiber exceed rho - 2 = 8.
    Before the rule it printed status=pass."""
    doc = builtin("enriques-k1")
    i9 = doc["fibration"]["fibers"][0]
    doc["fibration"]["fibers"] = [i9, {"type": "I3", "components": []}]
    del doc["expect"]
    path = tmp_path / "i9-i3.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    assert cli.run(["verify", str(path)], out=out) == 1
    lines = out.getvalue().splitlines()
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
    pytest.param(_I3_CHAIN, "fibration[I3]: not a Kodaira I3: A meets 1 of the other "
                            "components, not 2", id="i3-chain"),
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
    path = tmp_path / "fibers.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    assert cli.run(["verify", str(path)], out=out) == 1
    lines = out.getvalue().splitlines()
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
    # partly tracked and additive fibers are not checked
    ([{"type": "I3", "components": ["A"]}], [_rational("A")], (), []),
    ([{"type": "III", "components": ["A", "B"]}], [_rational("A"), _rational("B")], (), []),
    # I2 whose curves pair 1
    ([{"type": "I2", "components": ["A", "B"]}], [_rational("A"), _rational("B")],
     [("A", "B", 1)], ["fibration[I2]: not a Kodaira I2: A.B pair to 1, not 2"]),
    # a (-3)-curve in a cycle
    ([{"type": "I3", "components": ["A", "B", "C"]}],
     [_rational("A"), _rational("B"), {**_rational("C"), "self": -3, "Kdeg": 1}],
     [("A", "B", 1), ("B", "C", 1), ("C", "A", 1)],
     ["fibration[I3]: not a Kodaira I3: C is not a smooth rational (-2)-curve"]),
    # two components that pair 2 inside an I3
    ([{"type": "I3", "components": ["A", "B", "C"]}], [_rational(c) for c in "ABC"],
     [("A", "B", 2), ("B", "C", 1), ("C", "A", 1)],
     ["fibration[I3]: not a Kodaira I3: A.B pair to 2, not 0 or 1"]),
    # two disjoint 3-cycles declared as one I6
    ([{"type": "I6", "components": list("ABCDEF")}], [_rational(c) for c in "ABCDEF"],
     [("A", "B", 1), ("B", "C", 1), ("C", "A", 1), ("D", "E", 1), ("E", "F", 1), ("F", "D", 1)],
     ["fibration[I6]: not a Kodaira I6: the components do not form a single cycle"]),
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
], ids=["I1", "2I1", "I2", "I3", "2I4", "partial", "additive", "I2-pair-1", "I3-minus-3",
        "I3-pair-2", "I6-two-cycles", "one-class", "two-classes", "starred"])
def test_fibration_validate_kodaira_type_and_one_class(fibers, curves, pairing, found):
    cfg = config_mod.parse_unvalidated(_fibration_doc(fibers, curves, pairing)).configuration
    assert [str(v) for v in cfg.fibration.validate(cfg)] == found
