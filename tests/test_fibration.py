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
