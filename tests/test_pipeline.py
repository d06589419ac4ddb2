import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import documents
from qgsurf import blowup, cli, pipeline
from qgsurf import config as config_mod
from qgsurf.corpus import EXAMPLE_NAMES, builtin, verify_example
from qgsurf.errors import QgsurfError

DOCUMENTS = {name: builtin(name) for name in EXAMPLE_NAMES}


def _run(doc: dict) -> pipeline.RunResult:
    return pipeline.run(config_mod.parse_unvalidated(doc))


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_stages_hold_every_blowup_step(name):
    result = _run(DOCUMENTS[name])
    steps = len(result.document.blowups)
    assert len(result.stages) == steps + 1
    assert [s.blowup_count for s in result.stages] == list(range(steps + 1))
    assert result.stages[0] is result.document.configuration
    assert result.final is result.stages[-1]
    assert result.stages[-1] == blowup.apply_blowups(result.document.configuration,
                                                     result.document.blowups)
    assert result.passed and result.failures == ()
    assert result.report is not None and result.euler.deficit == 0


def test_blowups_replayed_once(monkeypatch):
    calls = []
    real = blowup.blow_up

    def counting(config, step):
        calls.append(step)
        return real(config, step)

    monkeypatch.setattr(blowup, "blow_up", counting)
    for name in EXAMPLE_NAMES:
        steps = len(DOCUMENTS[name]["blowups"])
        calls.clear()
        assert verify_example(name).passed
        assert len(calls) == steps, name
        calls.clear()
        assert cli.run(["example", name], out=io.StringIO()) == 0
        assert len(calls) == steps, name


def test_final_stage_checks_only_the_point_rule(monkeypatch):
    """The base is validated in full; after the blow-ups only the point rule
    runs, on the final stage, and with no blow-ups nothing runs again."""
    calls = []
    validate, point_violations = pipeline.validate, pipeline.point_violations
    monkeypatch.setattr(pipeline, "validate",
                        lambda config: calls.append(("validate", config)) or validate(config))
    monkeypatch.setattr(pipeline, "point_violations",
                        lambda config, points: calls.append(("points", config))
                        or point_violations(config, points))
    for name in EXAMPLE_NAMES:
        calls.clear()
        result = _run(DOCUMENTS[name])
        assert [kind for kind, _ in calls] == ["validate", "points"]
        assert calls[0][1] is result.stages[0] and calls[1][1] is result.final
    doc = documents.base()
    del doc["plan"], doc["expect"]  # the plan names curves of the blow-ups
    doc["blowups"] = []
    calls.clear()
    result = _run(doc)
    assert len(calls) == 1 and calls[0][0] == "validate" and calls[0][1] is result.final


def test_invalid_base_stops_before_blowups():
    doc = documents.base()
    doc["curves"][0]["self"] = -3
    result = _run(doc)
    assert result.stages == () and result.final is None and result.report is None
    assert {f.stage for f in result.failures} == {"base"}
    assert result.euler is not None  # the fibration lints still run


def test_failures_name_their_stage():
    doc = documents.base()
    # a type II fiber has one component, so it breaks the Euler sum alone and
    # stays inside the Shioda-Tate bound
    doc["fibration"]["fibers"].append({"type": "II", "components": []})
    doc["plan"]["chains"].append(["ZZ"])
    result = _run(doc)
    assert [(f.stage, str(f)) for f in result.failures] == [
        ("fibration", "declared fibers exceed 12*chi"),
        ("plan", "plan-name[chain3]: unknown curve 'ZZ'"),
        ("corpus", "euler sum 14 != 12"),
    ]


def test_expected_chains_are_a_multiset_and_indices_in_plan_order():
    doc = documents.base()
    doc["expect"]["chains"].reverse()
    assert _run(doc).passed
    doc["expect"]["indices"].reverse()
    assert _run(doc).failures == (
        pipeline.Failure("corpus", "indices (3, 7, 6) != (6, 7, 3)"),)


def test_expected_values_need_a_plan():
    doc = documents.base()
    del doc["plan"]
    assert _run(doc).failures == (
        pipeline.Failure("corpus", "no plan to check the expected values against"),)


def test_unappliable_blowup_raises_with_its_step():
    doc = documents.base()
    doc["blowups"][1]["branches"][0] = ["ZZ", 1]
    with pytest.raises(QgsurfError, match=r"^step 1 \(e2\): "):
        _run(doc)


# --- guard: mutated corpus documents end in a verdict or a QgsurfError ---

_POOL = (None, True, False, 0, 1, 2, -1, 13, 10**12, 1.5, "", "G1", "e1", "I9", "2I1",
         [], {}, [1], ["G1", 1], ["G1", "G2", 1], {"type": "I1"})


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(EXAMPLE_NAMES))])
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _replace(doc, path, copy.deepcopy(draw(st.sampled_from(_POOL))))
    return doc


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


def _verify_ends_in_a_verdict_or_an_input_error(doc_dir, doc):
    try:
        config_mod.parse_unvalidated(doc)
    except QgsurfError:
        pass
    # encoded here: a mutation may replace the whole document with a string
    code, out, err = documents.run(doc_dir, json.dumps(doc))
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_documents())
def test_mutated_documents_end_in_a_verdict_or_an_input_error(doc_dir, doc):
    _verify_ends_in_a_verdict_or_an_input_error(doc_dir, doc)


def test_fuzz_reaches_the_smoothing_section():
    sections = {name: [p for p in _paths(doc) if p[:2] == ("plan", "smoothing")]
                for name, doc in DOCUMENTS.items()}
    assert sections["enriques-k5-symplectic"] == []
    for name in EXAMPLE_NAMES[:5]:
        assert ("plan", "smoothing", "stage") in sections[name], name
        assert ("plan", "smoothing", "snc", 0) in sections[name], name


def test_every_smoothing_section_mutation_ends_in_a_verdict_or_an_input_error(doc_dir):
    # k2's section names E, which exists only from stage 1 on: every value of
    # the pool at every path of the section, one at a time
    doc = DOCUMENTS["enriques-k2"]
    for path in _paths(doc):
        if path[:2] != ("plan", "smoothing"):
            continue
        for value in _POOL:
            mutated = _replace(copy.deepcopy(doc), path, copy.deepcopy(value))
            _verify_ends_in_a_verdict_or_an_input_error(doc_dir, mutated)
