import io
import json
from pathlib import Path

import pytest

from qgsurf import cli, corpus, pipeline
from qgsurf import config as config_mod
from qgsurf.blowup import apply_blowups
from qgsurf.corpus import (
    EXAMPLE_NAMES,
    builtin,
    results_table,
    verify_example,
)
from qgsurf.errors import SchemaError, UnknownExampleError
from qgsurf.pipeline import Failure
from qgsurf.smoothing import validate_plan


def test_builtin_known_names():
    for name in EXAMPLE_NAMES:
        example = builtin(name)
        assert example["name"] == name
        assert "curves" in example


def test_builtin_expected_values():
    assert builtin("enriques-k1")["expect"]["K2"] == 1
    assert [8, 2, 2, 2, 2] in builtin("enriques-k3-kondo7")["expect"]["chains"]
    assert builtin("enriques-k5-symplectic")["expect"]["blowups"] == 12


def test_every_shipped_document_declares_expect():
    for name in EXAMPLE_NAMES:
        expect = config_mod.parse(builtin(name)).expect
        assert isinstance(expect, config_mod.Expectation), name
        assert expect.p_g == 0 and expect.K2 in (1, 2, 3, 4, 5), name


def test_corpus_mirror_matches_packaged_documents():
    root = Path(__file__).resolve().parents[1]
    mirror = {p.name: p.read_bytes() for p in (root / "corpus").glob("*.json")}
    packaged = {p.name: p.read_bytes()
                for p in (root / "src" / "qgsurf" / "corpus_data").glob("*.json")}
    assert sorted(mirror) == sorted(packaged) == sorted(f"{n}.json" for n in EXAMPLE_NAMES)
    for name, data in packaged.items():
        assert mirror[name] == data, name


def test_builtin_unknown():
    with pytest.raises(UnknownExampleError):
        builtin("bogus")


def test_verify_all_passes(corpus_results):
    assert len(corpus_results) == 6
    for name, result in corpus_results.items():
        assert result.passed, (name, result.failures)


def test_results_table_shape(corpus_results):
    table = results_table(list(corpus_results.values()))
    lines = table.splitlines()
    assert len(lines) == 7
    assert all("pass" in line for line in lines[1:])


def test_results_table_empty():
    table = results_table([])
    assert table.splitlines() == [table]  # header only


def test_expected_blowup_counts(corpus_results):
    counts = {name: r.final.blowup_count for name, r in corpus_results.items()}
    assert counts == {
        "enriques-k1": 5,
        "enriques-k2": 7,
        "enriques-k3-kondo2": 12,
        "enriques-k3-kondo7": 10,
        "enriques-k4": 15,
        "enriques-k5-symplectic": 12,
    }


def test_negative_control_corrupted_self_intersection():
    doc = builtin("enriques-k2")
    for curve in doc["curves"]:
        if curve["name"] == "G4":
            curve["self"] = -3  # breaks adjunction
    with pytest.raises(config_mod.ValidationError) as info:
        config_mod.parse(doc)
    assert any(v.kind == "adjunction" for v in info.value.violations)


def test_negative_control_corrupted_pairing():
    doc = builtin("enriques-k1")
    doc["pairing"] = [p for p in doc["pairing"] if p[:2] != ["G6", "G7"]]
    # the now-dangling cycle point is caught at parse time already
    with pytest.raises(config_mod.ValidationError):
        config_mod.parse(doc)
    # with the point dropped as well, the I9 fiber is no longer a cycle
    doc["points"] = [p for p in doc["points"] if p["name"] != "N67"]
    with pytest.raises(config_mod.ValidationError,
                       match=r"fibration\[I9\]: not a Kodaira I9: G6 pairs -1 with "):
        config_mod.parse(doc)
    # and the plan stage catches it on its own
    parsed = config_mod.parse_unvalidated(doc)
    final = apply_blowups(parsed.configuration, parsed.blowups)
    violations = validate_plan(final, parsed.plan)
    assert any(v.kind == "plan-shape" for v in violations)


def test_chain_multisets_match_figures(corpus_results):
    figures = {
        "enriques-k1": {(4, 2, 3, 2): 2, (4,): 2},
        "enriques-k2": {(6, 2, 2): 1, (7, 3, 2, 2, 2, 2): 1, (3, 3): 1},
        "enriques-k3-kondo2": {(5, 2): 1, (9, 2, 2, 2, 2, 2): 1,
                               (2, 9, 2, 2, 2, 2, 3): 1},
        "enriques-k3-kondo7": {(5, 2): 1, (9, 2, 2, 2, 2, 2): 1,
                               (8, 2, 2, 2, 2): 1},
        "enriques-k4": {(2, 2, 9, 2, 2, 2, 2, 4): 1,
                        (2, 2, 7, 6, 2, 3, 2, 2, 2, 2, 4): 1},
        "enriques-k5-symplectic": {(6, 2, 2): 1,
                                   (5, 8, 6, 2, 3, 2, 2, 2, 2, 2, 3, 2, 2, 2): 1},
    }
    for name, want in figures.items():
        got = {}
        for chain in corpus_results[name].report.chains:
            got[chain] = got.get(chain, 0) + 1
        assert got == want, name


def test_symplectic_long_chain_is_smoothable(corpus_results):
    report = corpus_results["enriques-k5-symplectic"].report
    assert max(len(c) for c in report.chains) == 14
    assert 151 in report.indices


def test_reports_have_topology(corpus_results):
    for name, result in corpus_results.items():
        top = result.report.topology
        if result.report.pi1_verdict == "criterion-satisfied":
            assert top.cover_b2plus == 3
            assert top.sigma_divisible_by_16 is False
        else:
            assert top.cover_sigma is None


def test_staged_certificates_reach_declared_rank(corpus_results):
    expected_ranks = {
        "enriques-k1": 10,
        "enriques-k2": 10,
        "enriques-k3-kondo2": 10,
        "enriques-k3-kondo7": 10,
        "enriques-k4": 11,
        "enriques-k5-symplectic": None,
    }
    for name, rank in expected_ranks.items():
        cert = corpus_results[name].independence
        assert (None if cert is None else cert.rank) == rank, name


def test_parse_each_corpus_file_from_text():
    from importlib import resources

    for name in EXAMPLE_NAMES:
        text = resources.files("qgsurf").joinpath(f"corpus_data/{name}.json").read_text()
        doc = config_mod.parse(text)
        assert doc.name == name
        assert doc.notes


class _Packaged:
    """Stands in for ``importlib.resources``: every packaged file reads as ``text``."""

    def __init__(self, text):
        self.data = text.encode("utf-8")

    def files(self, package):
        return self

    def joinpath(self, path):
        return self

    def read_bytes(self):
        return self.data


def test_expectation_mismatch_fails_the_example(monkeypatch):
    doc = builtin("enriques-k1")
    doc["expect"]["K2"] = 2
    monkeypatch.setattr(corpus, "resources", _Packaged(json.dumps(doc)))
    result = verify_example("enriques-k1")
    assert not result.passed
    assert result.failures == (Failure("corpus", "K2 1 != 2"),)
    out = io.StringIO()
    assert cli.run(["example", "enriques-k1"], out=out) == 1
    lines = out.getvalue().splitlines()
    assert "failure=corpus: K2 1 != 2" in lines
    assert lines[-1] == "status=fail"


def test_example_fails_on_unlisted_fibers(monkeypatch):
    # the pipeline only notes a positive deficit; a document declaring
    # `expect` is held to 0
    doc = builtin("enriques-k1")
    doc["fibration"]["fibers"].remove({"type": "I1", "multiplicity": 1, "components": []})
    monkeypatch.setattr(corpus, "resources", _Packaged(json.dumps(doc)))
    result = verify_example("enriques-k1")
    assert all(f.stage == "corpus" for f in result.failures)
    assert result.failures == (
        Failure("corpus", "euler sum 11 != 12"),
        Failure("corpus", "advisory: an I9 fiber implies three I1-type fibers; only 2 declared"),
    )


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_example_is_verify_of_the_shipped_document(name):
    # `example NAME` is `verify` of the shipped document: one pipeline, one result
    path = Path(__file__).resolve().parents[1] / "corpus" / f"{name}.json"
    verified = pipeline.run(config_mod.parse_unvalidated(path.read_bytes()))
    example = verify_example(name)
    assert example.report == verified.report
    assert example.independence == verified.independence
    assert example.euler == verified.euler
    assert example.advisories == verified.advisories
    assert example.stages[-1] == verified.stages[-1]
    assert example.failures == verified.failures


def test_repeated_key_in_a_packaged_document_is_an_input_error(monkeypatch, capsys, tmp_path):
    """``example`` decodes the packaged JSON as ``verify`` decodes a file, so
    a repeated key is the same SchemaError (exit 2) under both."""
    text = corpus.resources.files("qgsurf").joinpath("corpus_data/enriques-k1.json").read_text()
    repeated = text.replace('"name": "enriques-k1"', '"name": "x", "name": "enriques-k1"', 1)
    assert repeated != text
    path = tmp_path / "repeated.json"
    path.write_text(repeated)
    message = "error: duplicate key 'name' in a JSON object\n"
    assert cli.run(["verify", str(path)], io.StringIO()) == 2
    assert capsys.readouterr().err == message

    monkeypatch.setattr(corpus, "resources", _Packaged(repeated))
    with pytest.raises(SchemaError, match="duplicate key 'name' in a JSON object"):
        builtin("enriques-k1")
    assert cli.run(["example", "enriques-k1"], io.StringIO()) == 2
    assert capsys.readouterr().err == message
