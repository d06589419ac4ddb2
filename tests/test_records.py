"""The pipeline's records are frozen named tuples.

Each record refuses field assignment and ``_replace`` keeps its type;
``Configuration`` keeps its curve-name table ``position`` beside the
fields, and a ``_replace`` never inherits a table built for other curves.
"""

import pytest

import documents
from qgsurf import corpus
from qgsurf.errors import UnknownCurveError
from qgsurf.pipeline import Failure
from qgsurf.smoothing import pi1_criterion

RECORDS = [
    "SurfaceInvariants", "CurveClass", "PointSpec", "BlowupStep", "SmoothingHypothesis",
    "ContractionPlan", "IndependenceCertificate", "Configuration", "Expectation", "Document",
    "FiberSpec", "FibrationData", "EulerCheck",
    "Elimination",
    "AmpleEntry", "AmplenessCertificate", "Pi1Criterion", "TopologyReport",
    "SingularSurfaceReport",
    "Failure", "RunResult",
]


@pytest.fixture(scope="module")
def instances():
    """One instance of every record, taken from a run of the base example."""
    result = corpus.verify_example(documents.BASE)
    doc, cfg, report = result.document, result.final, result.report
    return [
        cfg.surface, cfg.curves[0], cfg.points[0], doc.blowups[0], doc.plan.smoothing,
        doc.plan, result.independence, cfg, doc.expect, doc,
        cfg.fibration.fibers[0], cfg.fibration, result.euler,
        result.independence.witness,
        report.ample.entries[0], report.ample, pi1_criterion(cfg, doc.plan), report.topology,
        report,
        Failure("plan", "message"), result,
    ]


def test_every_record_has_an_instance(instances):
    assert [type(r).__name__ for r in instances] == RECORDS


@pytest.mark.parametrize("position", range(len(RECORDS)), ids=RECORDS)
def test_record_is_frozen_and_replace_keeps_its_type(instances, position):
    record = instances[position]
    assert isinstance(record, tuple)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    first = record._fields[0]
    copy = record._replace(**{first: getattr(record, first)})
    assert type(copy) is type(record)
    assert copy == record


def test_configuration_replace_resolves_the_new_names():
    cfg = corpus.verify_example(documents.BASE).stages[0]
    s1 = cfg.names.index("S1")
    assert cfg.position["S1"] == s1 and "S1" in cfg.position  # builds the table
    renamed = cfg._replace(curves=tuple(c._replace(name=c.name + "'") for c in cfg.curves))
    assert renamed.position["S1'"] == s1
    assert renamed.curve("G9'") == renamed.curves[cfg.position["G9"]]
    assert "S1" not in renamed.position
    with pytest.raises(UnknownCurveError):
        renamed.position["S1"]
    assert cfg.position["S1"] == s1 and "S1'" not in cfg.position


def test_position_is_outside_equality_and_hash():
    cfg = corpus.verify_example(documents.BASE).stages[0]
    fresh = cfg._replace()
    assert cfg.position and "position" not in fresh.__dict__  # only cfg has a table
    assert cfg == fresh and hash(cfg) == hash(fresh)
    assert len(cfg) == len(cfg._fields)


# The ids name the two lookups: ``position[name]`` (index) and ``name in position``
# (membership). A fresh copy has no table yet, so the first lookup builds it.
@pytest.mark.parametrize("first", ["index_of", "has_curve"])
def test_unknown_curve_raises_whichever_lookup_runs_first(first):
    cfg = corpus.verify_example(documents.BASE).stages[0]._replace()
    assert "position" not in cfg.__dict__
    if first == "has_curve":
        assert "Z" not in cfg.position
    with pytest.raises(UnknownCurveError, match="^Z$"):
        cfg.position["Z"]
    with pytest.raises(UnknownCurveError):
        cfg.pairing_of("S1", "Z")
    assert "Z" not in cfg.position and cfg.position.get("Z") is None
