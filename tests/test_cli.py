import hashlib
import io
import json
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import documents
import qgsurf
from qgsurf import cli, errors, kernel, pipeline
from qgsurf.cli import run
from qgsurf.config import independence_certificate, parse, parse_unvalidated, to_document
from qgsurf.corpus import builtin
from qgsurf.wahl import canonical_order, generate_class_T
from ratlin_oracle import chain_gram, solve_unique


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def test_chain_subcommand_classt_line():
    code, text = invoke("chain", "4,2,3,2")
    assert code == 0
    assert ("classT d=3 n=3 a=1 m=27 q=8 index=3 contribution=2 "
            "discrepancies=-2/3,-2/3,-2/3,-1/3") in text


def test_chain_subcommand_rejection():
    code, text = invoke("chain", "5")
    assert code == 0
    assert "notClassT" in text
    assert "hj=5/1" in text


def test_chain_subcommand_bad_input():
    code, _ = invoke("chain", "4,x")
    assert code == 2
    code, _ = invoke("chain", "4,1,3")
    assert code == 2


@pytest.mark.parametrize("entries, position", [
    ("2,,3", 2), ("5,2,", 3), (",4", 1), ("", 1), ("4, ,3", 2)])
def test_chain_empty_entry_is_an_input_error(entries, position, capsys):
    # an empty entry is never dropped: "2,,3" is not read as [2, 3]
    code, text = invoke("chain", entries)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: chain: entry {position} is empty\n"


@pytest.mark.parametrize("entries, position, entry", [
    ("2,3_0", 2, "3_0"), ("\u0663,4", 1, "\u0663"), ("4,3.0", 2, "3.0"), ("4,3 0", 2, "3 0"),
    ("4,x", 2, "x"), ("4,0x3", 2, "0x3"), ("4,+-3", 2, "+-3"), ("4,+", 2, "+"),
    ("4,\u00b2", 2, "\u00b2")])
def test_chain_entry_must_be_ascii_digits(entries, position, entry, capsys):
    # int() alone would read "2,3_0" as 2,30 and "\u0663,4" (Arabic-Indic three) as 3,4
    code, text = invoke("chain", entries)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: chain: entry {position} is not an integer: {entry!r}\n"


# the interpreter refuses to turn an integer of more digits than this into
# text (0: no limit, as on a Python 3.10 before 3.10.7)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_default_digit_limit = pytest.mark.skipif(
    DIGIT_LIMIT != 4300, reason="the cases are sized for the default digit limit, 4300")
DIGIT_LIMIT_MESSAGE = ("an integer to print has more than 4300 digits, the interpreter's "
                       "limit for integer-to-text conversion")


@needs_default_digit_limit
@pytest.mark.parametrize("mode", ["text", "json"])
def test_chain_too_long_to_print_is_an_input_error(mode, capsys):
    # each entry has 2,001 digits and parses; m, the continuant of all
    # three, has about 6,000
    entries = ",".join([str(10**2000)] * 3)
    assert invoke("--output", mode, "chain", entries) == (2, "")
    assert capsys.readouterr().err == f"error: {DIGIT_LIMIT_MESSAGE}\n"


@needs_default_digit_limit
@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("entries, position", [
    ("1" + "0" * 5000, 1), ("4, -" + "9" * 4301, 2)], ids=["first", "second-negative"])
def test_chain_entry_beyond_the_digit_limit_is_an_input_error(mode, entries, position, capsys):
    # the entry is ASCII digits, but more of them than int() reads
    assert invoke("--output", mode, "chain", entries) == (2, "")
    assert capsys.readouterr().err == (
        f"error: chain: entry {position} has more than 4300 digits, the interpreter's "
        "limit for text-to-integer conversion\n")


@needs_default_digit_limit
@pytest.mark.parametrize("command", [("verify",), ("--output", "json", "verify"), ("export-dot",)])
def test_document_literal_beyond_the_digit_limit_is_an_input_error(tmp_path, command):
    doc = documents.base()
    doc["surface"]["K2"] = "K2"
    text = json.dumps(doc).replace('"K2": "K2"', '"K2": ' + "1" * 5001)
    assert documents.run(tmp_path, text, *command) == (2, "", (
        "error: not valid JSON: an integer literal has more than 4300 digits, the "
        "interpreter's limit for text-to-integer conversion\n"))


def test_without_a_digit_limit_the_refusal_is_not_reworded(monkeypatch, capsys):
    """A Python before 3.10.7 has no ``sys.get_int_max_str_digits`` and
    converts integers of any length, so no refusal can come from the limit:
    a ValueError that reads like one is passed on as it is."""
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    refusal = ValueError("Exceeds the limit (4300 digits) for integer string conversion")
    assert errors.digit_limit(refusal) is None
    if DIGIT_LIMIT == 4300:  # this interpreter still refuses, and nothing rewords it
        with pytest.raises(ValueError, match=r"^Exceeds the limit \(4300 digits\)"):
            invoke("chain", ",".join([str(10**2000)] * 3))
        assert invoke("chain", "1" + "0" * 5000) == (2, "")
        assert capsys.readouterr().err.startswith("error: chain: Exceeds the limit (")


def test_chain_entry_takes_a_sign_and_spaces():
    assert invoke("chain", " 4 ,+3\t") == invoke("chain", "4,3")
    assert invoke("chain", "4,-3")[0] == 2


def test_chain_json_mode():
    code, text = invoke("--output", "json", "chain", "4")
    assert code == 0
    blob = json.loads(text)
    assert blob["classT"]["index"] == 2
    assert blob["hj"] == "4/1"


def test_example_subcommand_passes():
    code, text = invoke("example", documents.BASE)
    assert code == 0
    assert "K2_X=3" in text
    assert "pi1=criterion-satisfied" in text
    assert text.strip().endswith("status=pass")


def test_example_prints_the_independence_witness():
    code, text = invoke("example", "enriques-k1")
    assert code == 0
    assert text.splitlines()[1:4] == [
        "independence_rank=10",
        "independence_pivots=S1,S2,G1,G2,G3,G5,G6,G7,G8,G9 x G1,G2,G3,G4,G5,G6,G7,G8,G9,S1",
        "independence_minor=-18",
    ]
    assert "independence_relation=" not in text
    code, text = invoke("--output", "json", "example", "enriques-k1")
    blob = json.loads(text)
    assert blob["independence_pivots"] == {
        "rows": ["S1", "S2", "G1", "G2", "G3", "G5", "G6", "G7", "G8", "G9"],
        "columns": [f"G{i}" for i in range(1, 10)] + ["S1"]}
    assert blob["independence_minor"] == -18
    assert blob["independence_relation"] == []
    # an example without a certificate carries the fields as null
    code, text = invoke("--output", "json", "example", "enriques-k5-symplectic")
    blob = json.loads(text)
    assert [blob[k] for k in ("independence_rank", "independence_pivots",
                              "independence_minor", "independence_relation")] == [None] * 4


def test_witness_relation_names_the_fiber_class(corpus_results):
    cfg = corpus_results["enriques-k1"].document.configuration
    cert = independence_certificate(cfg, [f"G{i}" for i in range(1, 10)] + ["F"])
    fields = pipeline.witness_fields(cert)
    assert fields["independence_relation"] == [
        {**{f"G{i}": -1 for i in range(1, 10)}, "F": 1}]
    assert [pipeline.relation_text(c) for c in fields["independence_relation"]] == [
        "-G1-G2-G3-G4-G5-G6-G7-G8-G9+F"]
    assert pipeline.relation_text({"S1": 3, "S2": -2, "G1": 1}) == "3*S1-2*S2+G1"


def test_repeated_runs_match_fresh_processes(capsys, fresh_env):
    # run() reuses one parser; mixed subcommands, --output values and an
    # argparse error in one process must each print what a fresh process does
    k2 = str(Path(__file__).resolve().parent.parent / "corpus" / "enriques-k2.json")
    calls = [
        ["example", documents.BASE],
        ["--output", "json", "verify", k2],
        ["chain", "4,2,3,2"],
        ["--output", "yaml", "chain", "4"],
        ["--output", "json", "example", "enriques-k4"],
        ["verify", k2],
        ["enumerate-classT", "--max-len", "4", "--max-entry", "6"],
        ["--output", "json", "chain", "4"],
        ["example", "bogus"],
    ]
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "qgsurf", *argv], capture_output=True,
                               text=True, env=fresh_env, timeout=120)
        out = io.StringIO()
        try:
            code = run(argv, out=out)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert (code, out.getvalue(), err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_example_subcommand_unknown_name():
    code, _ = invoke("example", "bogus")
    assert code == 2


def test_verify_all_subcommand():
    code, text = invoke("verify-all")
    assert code == 0
    assert text.count("pass") == 6


def test_verify_all_json():
    code, text = invoke("--output", "json", "verify-all")
    assert code == 0
    rows = json.loads(text)
    assert [r["K2"] for r in rows] == ["1", "2", "3", "3", "4", "5"]


def test_verify_subcommand_on_file(tmp_path):
    code, text, _ = documents.run(tmp_path, to_document(parse(builtin("enriques-k2"))))
    assert code == 0
    assert "K2_X=2" in text


def test_verify_subcommand_missing_file():
    code, _ = invoke("verify", "does-not-exist.json")
    assert code == 2


def test_verify_subcommand_schema_error(tmp_path):
    code, _, _ = documents.run(tmp_path, '{"surface": {}}')
    assert code == 2


def test_verify_subcommand_violation_exits_one(tmp_path):
    doc = {
        "surface": {"kind": "other", "chi": 1, "K2": 0, "K_num_trivial": False},
        "curves": [{"name": "C", "self": -3, "genus": 0, "Kdeg": 0, "tags": []}],
    }
    code, text, _ = documents.run(tmp_path, doc)
    assert code == 1
    assert "adjunction" in text


@pytest.mark.parametrize("field, value, failure", [
    ("K2", 2, "K2 3 != 2"),
    ("chains", [[5, 2], [9, 2, 2, 2, 2, 2], [8, 2, 2, 2, 3]],
     "chains ((5, 2), (9, 2, 2, 2, 2, 2), (8, 2, 2, 2, 2)) != expected"),
    ("gcd", 3, "gcd 1 != 3"),
    ("pi1", "inconclusive", "pi1 criterion-satisfied != inconclusive"),
    ("moduli_dim", 9, "moduli 4 != 9"),
    ("p_g", 1, "p_g 0 != 1"),
], ids=["K2", "chains", "gcd", "pi1", "moduli_dim", "p_g"])
def test_verify_holds_a_document_to_its_expectations(tmp_path, field, value, failure):
    doc = documents.base()
    doc["expect"][field] = value
    code, text, _ = documents.run(tmp_path, doc)
    assert code == 1
    lines = text.splitlines()
    assert [line for line in lines if line.startswith("violation=")] == [
        f"violation=corpus: {failure}"]
    assert lines[-1] == "status=fail"


def test_verify_holds_a_document_with_expectations_to_the_corpus_rules(tmp_path):
    # without `expect` a positive deficit and the I9 advisory never fail
    # (test_verify_positive_deficit_is_a_note_not_a_failure)
    doc = documents.base()
    doc["fibration"]["fibers"].remove({"type": "I1", "multiplicity": 1, "components": []})
    code, text, _ = documents.run(tmp_path, doc)
    assert code == 1
    assert [line for line in text.splitlines() if line.startswith("violation=")] == [
        "violation=corpus: euler sum 11 != 12",
        "violation=corpus: advisory: an I9 fiber implies three I1-type fibers; only 2 declared",
    ]


def test_enumerate_classt():
    code, text = invoke("enumerate-classT", "--max-len", "2", "--max-entry", "5")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("chain=4 ")
    assert any(line.startswith("chain=2,5 ") for line in lines)
    assert any(line.startswith("chain=5,2 ") for line in lines)


def test_enumerate_classt_digest_frozen():
    # SHA-256 of the listing at the benchmark's bounds (2,036 lines), frozen:
    # sharing fraction texts across a listing must not change one byte
    code, text = invoke("enumerate-classT", "--max-len", "10", "--max-entry", "14")
    assert code == 0 and text.count("\n") == 2036
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a9c35c4b2f40698b696d0141c6a7895c4c401c527fce390f3a6fcb64e13ab663")


def test_enumerate_classt_empty_listing_prints_nothing():
    assert invoke("enumerate-classT", "--max-len", "10", "--max-entry", "2") == (0, "")
    assert invoke("--output", "json", "enumerate-classT", "--max-len", "10",
                  "--max-entry", "2") == (0, "[]\n")
    assert invoke("enumerate-classT", "--max-len", "3", "--max-entry", "1") == (0, "")


def test_enumerate_classt_lines_are_chain_reports():
    # one listing shares its fraction texts across chains; each line must
    # still be exactly what `chain` prints for that chain alone, list the
    # generator's chains in canonical order, and meet criterion 5
    for max_len, max_entry in [(6, 9), (8, 10)]:
        code, text = invoke("enumerate-classT", "--max-len", str(max_len),
                            "--max-entry", str(max_entry))
        assert code == 0
        lines = text.splitlines()
        chains = [tuple(map(int, line.split(" ", 1)[0].removeprefix("chain=").split(",")))
                  for line in lines]
        assert chains == canonical_order(generate_class_T(max_len, max_entry))
        for chain, line in zip(chains, lines):
            code, report = invoke("chain", ",".join(map(str, chain)))
            assert code == 0
            assert line == " ".join(report.splitlines())
            fields = dict(token.partition("=")[::2] for token in line.split())
            assert "classT" in fields, line
            disc = [Fraction(x) for x in fields["discrepancies"].split(",")]
            assert len(disc) == len(chain) and all(-1 < a < 0 for a in disc), line
            assert Fraction(fields["contribution"]) == len(chain) + 1 - int(fields["d"]), line


def test_enumerate_classt_deterministic():
    a = invoke("enumerate-classT", "--max-len", "4", "--max-entry", "6")
    b = invoke("enumerate-classT", "--max-len", "4", "--max-entry", "6")
    assert a == b


def test_export_dot(tmp_path):
    doc = to_document(parse(documents.base()))
    code, text, err = documents.run(tmp_path, doc, "export-dot")
    assert (code, err) == (0, "")
    assert text.startswith("graph configuration {")
    assert '"G1" -- "G2";' in text
    assert documents.run(tmp_path, doc, "export-dot") == (code, text, err)


def test_export_dot_draws_the_base_and_replays_no_blowup(tmp_path):
    """``export-dot`` draws the configuration as declared.  A step whose
    label is a base curve's name is an input error for ``verify``, which
    replays the blow-ups, and no concern of ``export-dot``, which does not."""
    doc = documents.base()
    doc["blowups"][0]["label"] = "G1"
    assert documents.run(tmp_path, doc) == (
        2, "", "error: step 0 (G1): exceptional curve label 'G1' already in use\n")
    assert documents.run(tmp_path, doc, "export-dot") == documents.run(
        tmp_path, documents.base(), "export-dot")


def test_export_dot_quotes_labels(tmp_path):
    # the label is a DOT string like the vertex id, so quotes and
    # backslashes in a curve name are escaped in both
    doc = {
        "surface": {"kind": "other", "chi": 1, "K2": 0, "K_num_trivial": False},
        "curves": [{"name": n, "self": -2, "genus": 0, "Kdeg": 0, "tags": []}
                   for n in ('A"x', r"B\y")],
        "pairing": [['A"x', r"B\y", 1]],
    }
    assert documents.run(tmp_path, doc, "export-dot") == (0, "".join([
        "graph configuration {\n",
        r'  "A\"x" [label="A\"x (-2)"];' "\n",
        r'  "B\\y" [label="B\\y (-2)"];' "\n",
        r'  "A\"x" -- "B\\y";' "\n",
        "}\n"]), "")


def test_export_dot_work_is_bounded_by_the_pairs_not_the_pairing(tmp_path, fresh_env):
    # one edge per pair, so a pairing of 10^12 prints one line; under a
    # 256 MB address-space cap an edge per unit of intersection ends in
    # MemoryError
    doc = {
        "surface": {"kind": "other", "chi": 1, "K2": 0, "K_num_trivial": False},
        "curves": [{"name": n, "self": -2, "genus": 0, "Kdeg": 0, "tags": []}
                   for n in ("A", "B")],
        "pairing": [["A", "B", 10**12]],
    }
    path = documents.write(tmp_path, doc)
    cap = 256 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run([sys.executable, "-m", "qgsurf", "export-dot", str(path)],
                          capture_output=True, text=True, env=fresh_env, timeout=60,
                          preexec_fn=limit_memory)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-2:] == ['  "A" -- "B" [label="1000000000000"];', "}"]


def test_info_subcommand():
    code, text = invoke("info")
    assert code == 0
    assert text == f"version={qgsurf.__version__}\nkernel_backend={kernel.BACKEND}\n"
    code, text = invoke("--output", "json", "info")
    assert code == 0
    assert json.loads(text) == {"version": qgsurf.__version__, "kernel_backend": kernel.BACKEND}


def test_verify_without_plan_runs_lints_only(tmp_path):
    doc = {
        "surface": {"kind": "enriques", "chi": 1, "K2": 0, "K_num_trivial": True},
        "curves": [{"name": "C", "self": -2, "genus": 0, "Kdeg": 0, "tags": []}],
    }
    code, text, _ = documents.run(tmp_path, doc)
    assert code == 0
    assert "status=pass" in text
    assert "K2_X" not in text


def test_example_json_mode():
    code, text = invoke("--output", "json", "example", "enriques-k4")
    assert code == 0
    blob = json.loads(text)
    assert blob["passed"] is True
    assert blob["report"]["K2_X"] == "4"
    assert blob["report"]["indices"] == [19, 73]
    assert blob["report"]["topology"]["homeomorphism_target"] == "3CP2#11CP2bar"


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _set_two_sections(doc):
    doc["fibration"]["two_sections"] = "S1"


def _set_blowup_branches(doc):
    doc["blowups"][0]["branches"] = 5


def _set_plan_q(doc):
    doc["plan"]["q"] = -3


def _set_class_known(doc):
    # the field was parsed and written back, and no rule read it
    doc["fibration"]["generic_fiber_class_known"] = False


def _set_fiber_multiplicity(doc):
    doc["fibration"]["fibers"][1]["multiplicity"] = True


def _set_blowup_label(label):
    def edit(doc):
        doc["blowups"][0]["label"] = label
    return edit


def _set_surface_n(doc):
    doc["surface"]["n"] = 1


def _add_fiber(tag, multiplicity=None):
    def edit(doc):
        fiber = {"type": tag, "components": []}
        if multiplicity is not None:
            fiber["multiplicity"] = multiplicity
        doc["fibration"]["fibers"].append(fiber)
    return edit


def _repeat_two_section(doc):
    doc["fibration"]["two_sections"] = ["S1", "S1", "S2"]


def _repeat_disjoint_curve(doc):
    names = doc["fibration"]["multiple_fiber_disjoint_from"]
    doc["fibration"]["multiple_fiber_disjoint_from"] = names + names[:1]


def _set_point_name_empty(doc):
    doc["points"][0]["name"] = ""


def _set_expect(key, value):
    def edit(doc):
        doc["expect"][key] = value
    return edit


def _drop_expect_field(doc):
    del doc["expect"]["p_g"]


def _set_surface_beyond_the_digit_limit(doc):
    # K2 has 4,300 digits, which a JSON integer may have; the moduli
    # dimension derived from it, 10*chi - 2*K2, has 4,301
    doc["surface"] = {"kind": "other", "chi": 1, "K2": 9 * 10**4299, "K_num_trivial": False}
    del doc["expect"]


@pytest.mark.parametrize("edit, message", [
    (_set("pairing", 5), "pairing: expected an array, got 5"),
    (_set("pairing", "G1"), "pairing: expected an array, got 'G1'"),
    (_set("pairing", [[["G1"], "G2", 1]]), "pairing: curve names must be strings, got ['G1'], 'G2'"),
    (_set("notes", "hi"), "notes: expected an array, got 'hi'"),
    (_set("name", 5), "name: expected a string, got 5"),
    (_set_two_sections, "fibration.two_sections: expected an array, got 'S1'"),
    (_set_blowup_branches, "blowups[].branches: expected an array, got 5"),
    (_set_plan_q, "plan.q: expected a non-negative integer, got -3"),
    (_set_class_known, "fibration: unknown field(s) ['generic_fiber_class_known']"),
    (_set_fiber_multiplicity, "fibration.fibers[].multiplicity: expected an integer, got True"),
    (_set_blowup_label(""), "blowups[].label: expected a nonempty string"),
    (_set_surface_n, "surface.n only applies to kind 'e'"),
    (_add_fiber("III", 2), "multiple fiber '2III' must have reduced type I_n"),
    (_add_fiber("2I9", 1), "fiber tagged '2I9' but multiplicity 1"),
    pytest.param(_add_fiber("I" + "9" * 5000), "fiber index has more than 4300 digits, the "
                 "interpreter's limit for text-to-integer conversion",
                 marks=needs_default_digit_limit),
    (_add_fiber("I\u0669"), "unknown Kodaira tag 'I\u0669'"),
    (_add_fiber("I\uff19"), "unknown Kodaira tag 'I\uff19'"),
    (_add_fiber("2I\u0669"), "unknown Kodaira tag '2I\u0669'"),
    (_repeat_two_section, "fibration.two_sections: duplicate curve name 'S1'"),
    (_repeat_disjoint_curve, "fibration.multiple_fiber_disjoint_from: duplicate curve name 'G1'"),
    (_set_point_name_empty, "points[].name: expected a nonempty string"),
    (_set_expect("extra", 1), "expect: unknown field(s) ['extra']"),
    (_drop_expect_field, "expect: missing required field 'p_g'"),
    (_set_expect("gcd", True), "expect.gcd: expected an integer, got True"),
    (_set_expect("K2", "1"), "expect.K2: expected an integer, got '1'"),
    (_set_expect("chains", [None]), "expect.chains[]: expected an array, got None"),
    pytest.param(_set_surface_beyond_the_digit_limit, DIGIT_LIMIT_MESSAGE,
                 marks=needs_default_digit_limit),
], ids=["pairing-int", "pairing-string", "pairing-list-name", "notes-string",
        "name-int", "two-sections-string", "blowup-branches-int", "plan-q-negative",
        "class-known-present", "multiplicity-bool", "blowup-label-empty",
        "surface-n-not-e", "multiple-fiber-III", "2I9-multiplicity-1", "fiber-index-too-long",
        "fiber-index-arabic-indic", "fiber-index-fullwidth", "multiple-fiber-index-arabic-indic",
        "two-sections-repeated", "disjoint-from-repeated",
        "point-name-empty", "expect-unknown-field", "expect-missing-field",
        "expect-gcd-bool", "expect-K2-string", "expect-chains-null",
        "moduli-dim-beyond-the-digit-limit"])
def test_verify_malformed_document_exits_two(tmp_path, edit, message):
    doc = documents.base()
    edit(doc)
    commands = [("verify",), ("--output", "json", "verify")]
    if edit is not _set_surface_beyond_the_digit_limit:  # export-dot derives no integer
        commands.append(("export-dot",))
    for command in commands:
        assert documents.run(tmp_path, doc, *command) == (2, "", f"error: {message}\n"), command


@pytest.mark.parametrize("command", ["verify", "export-dot"])
@pytest.mark.parametrize("payload", [
    b'{"name": "\xff"}',
    b"[" * 100_000 + b"]" * 100_000,
    b'{"name": ' + b"1" * 5000 + b"}",
], ids=["invalid-utf8", "nested-too-deep", "integer-too-long"])
def test_undecodable_file_exits_two(tmp_path, capsys, command, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    code, text = invoke(command, str(path))
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: not valid JSON: ")


def test_duplicate_key_exits_two(tmp_path):
    text = json.dumps(documents.base())
    assert documents.run(tmp_path, text[:-1] + ', "plan": {}}') == (
        2, "", "error: duplicate key 'plan' in a JSON object\n")


def test_verify_blowup_at_unknown_curve_exits_two(tmp_path):
    doc = documents.base()
    step = doc["blowups"][0]
    step["branches"][0][0] = "Z"
    label = step["label"]
    assert documents.run(tmp_path, doc) == (
        2, "", f"error: step 0 ({label}): point[{label}]: branch references unknown curve 'Z'\n")


def test_blowup_step_over_the_pairing_blames_its_own_point(tmp_path):
    """S1 and S2 meet once, at P1, which step 0 blows up; a later step
    through both finds them disjoint, and the excess is the step's own."""
    doc = documents.base()
    doc["blowups"].append({"label": "T", "branches": [["S1", 1], ["S2", 1]]})
    assert documents.run(tmp_path, doc) == (
        2, "", "error: step 10 (T): point-pairing[S1.S2]: "
               "the blown-up point accounts for 1 > pairing 0\n")


def test_unlabeled_blowup_at_unknown_curve_names_its_step_once(tmp_path):
    doc = documents.base()
    step = doc["blowups"][0]
    del step["label"]
    step["branches"][0][0] = "Z"
    assert documents.run(tmp_path, doc) == (
        2, "", "error: step 0 (e1): point[e1]: branch references unknown curve 'Z'\n")


def test_readme_sample_document_verdict(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sample = re.search(r"Short example:\n\n```json\n(.*?)```", readme, re.S).group(1)
    stated = re.search(r"`qgsurf verify`\s+on this sample exits (\d)", readme).group(1)
    code, text, _ = documents.run(tmp_path, sample)
    assert code == int(stated)
    assert text.splitlines() == [
        "violation=plan: plan-smoothability[chain0]: chain [3] is not smoothable",
        "violation=plan: plan-smoothability[chain1]: chain [3] is not smoothable",
        "status=fail",
    ]


def test_verify_rational_elliptic_i9_advisory(tmp_path):
    doc = {
        "surface": {"kind": "e", "n": 1, "chi": 1, "K2": 0, "K_num_trivial": False},
        "curves": [{"name": "S", "self": -1, "genus": 0, "Kdeg": -1, "tags": []}],
        "fibration": {"fibers": [{"type": "I9", "components": []},
                                 {"type": "I1", "components": []}]},
    }
    code, text, _ = documents.run(tmp_path, doc)
    assert code == 0
    assert "advisory=an I9 fiber implies three I1-type fibers; only 1 declared" in text
    assert text.endswith("status=pass\n")


def test_verify_positive_deficit_is_a_note_not_a_failure(tmp_path):
    doc = documents.base()
    del doc["expect"]  # a document declaring `expect` is held to deficit 0
    fibers = doc["fibration"]["fibers"]
    fibers.remove({"type": "I1", "multiplicity": 1, "components": []})
    code, text, _ = documents.run(tmp_path, doc)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "euler_sum=11 target=12 deficit=1 note=unlisted fibers"
    assert lines[1] == "advisory=an I9 fiber implies three I1-type fibers; only 2 declared"
    assert "violation=" not in text
    assert lines[-1] == "status=pass"


def golden_chain(chain):
    """Text lines and JSON blob of ``qgsurf chain``, built from Fraction
    arithmetic, the Gaussian solve and the recursive generator."""
    value = Fraction(chain[-1])
    for b in reversed(chain[:-1]):
        value = b - 1 / value
    m, q = value.numerator, value.denominator
    disc = solve_unique(chain_gram(chain), [b - 2 for b in chain])
    contribution = -sum((a * (b - 2) for a, b in zip(disc, chain)), Fraction(0))
    data = None
    if chain in generate_class_T(len(chain), max(chain)):
        # m = d*n^2 and q = d*n*a - 1 with 1 <= a < n coprime
        data = next({"d": m // (n * n), "n": n, "a": (q + 1) // (m // n), "m": m, "q": q,
                     "index": n}
                    for n in range(2, m + 1)
                    if m % (n * n) == 0 and (q + 1) % (m // n) == 0)
    disc_s = ",".join(str(a) for a in disc)
    lines = ["chain=" + ",".join(str(b) for b in chain), f"hj={m}/{q}"]
    if data is None:
        lines.append(f"notClassT contribution={contribution} discrepancies={disc_s}")
    else:
        lines.append(
            "classT " + " ".join(f"{k}={v}" for k, v in data.items())
            + f" contribution={contribution} discrepancies={disc_s}")
    blob = {"chain": list(chain), "hj": f"{m}/{q}", "classT": data,
            "contribution": str(contribution), "discrepancies": [str(a) for a in disc]}
    return lines, blob


def test_enumerate_classt_golden():
    chains = sorted(generate_class_T(6, 9), key=lambda c: (len(c), c))
    expected = "".join(" ".join(golden_chain(c)[0]) + "\n" for c in chains)
    assert invoke("enumerate-classT", "--max-len", "6", "--max-entry", "9") == (0, expected)
    assert invoke("--output", "json", "enumerate-classT", "--max-len", "6",
                  "--max-entry", "9") == (0, json.dumps([list(c) for c in chains]) + "\n")


@pytest.mark.parametrize("chain", [
    (4,), (3, 3), (4, 2, 3, 2), (7, 3, 2, 2, 2, 2), (2, 9, 2, 2, 2, 2, 3),
    (5, 8, 6, 2, 3, 2, 2, 2, 2, 2, 3, 2, 2, 2),
    (2,), (5,), (2, 2), (2, 3, 2), (6, 2, 2, 3), (13, 2, 7, 11), (2,) * 9,
])
def test_chain_golden(chain):
    lines, blob = golden_chain(chain)
    arg = ",".join(str(b) for b in chain)
    assert invoke("chain", arg) == (0, "\n".join(lines) + "\n")
    assert invoke("--output", "json", "chain", arg) == (0, json.dumps(blob, indent=1) + "\n")


def test_verify_prints_the_independence_witness(tmp_path):
    # verify checks the document's smoothing hypothesis and prints the same
    # witness lines and keys as example, after the fibration lines
    path = Path(__file__).resolve().parents[1] / "corpus" / "enriques-k2.json"
    _, example_text = invoke("example", "enriques-k2")
    witness = [line for line in example_text.splitlines() if line.startswith("independence_")]
    assert witness[0] == "independence_rank=10"
    code, text = invoke("verify", str(path))
    assert code == 0
    assert text.splitlines()[1:1 + len(witness)] == witness
    _, example_json = invoke("--output", "json", "example", "enriques-k2")
    code, verify_json = invoke("--output", "json", "verify", str(path))
    keys = ("independence_rank", "independence_pivots", "independence_minor",
            "independence_relation")
    assert [json.loads(verify_json)[k] for k in keys] == [json.loads(example_json)[k] for k in keys]


def _smoothing(**fields):
    def edit(doc):
        doc["plan"]["smoothing"].update(fields)
    return edit


def _set_smoothing(value):
    def edit(doc):
        doc["plan"]["smoothing"] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set_smoothing([]), "plan.smoothing: expected an object"),
    (_set_smoothing(None), "plan.smoothing: expected an object"),
    (_smoothing(rank=10), "plan.smoothing: unknown field(s) ['rank']"),
    (_smoothing(independent=["S1", 5]),
     "plan.smoothing.independent: expected an array of strings, got element 5"),
    (_smoothing(snc="S1"), "plan.smoothing.snc: expected an array, got 'S1'"),
    (_smoothing(independent=["S1", "G1", "S1"]),
     "plan.smoothing.independent: duplicate curve name 'S1'"),
    (_smoothing(snc=["G2", "G2"]), "plan.smoothing.snc: duplicate curve name 'G2'"),
    (_smoothing(stage=-1), "plan.smoothing.stage: expected 0..10 (the number of blow-ups), got -1"),
    (_smoothing(stage=11), "plan.smoothing.stage: expected 0..10 (the number of blow-ups), got 11"),
    (_smoothing(stage=True), "plan.smoothing.stage: expected an integer, got True"),
    (_set_smoothing({"stage": 0, "snc": ["S1"]}),
     "plan.smoothing: missing required field 'independent'"),
    (_smoothing(independent=[]),
     "plan.smoothing.independent: expected a nonempty array of curve names"),
], ids=["array", "null", "unknown-field", "name-int", "snc-string", "repeated-independent",
        "repeated-snc", "stage-negative", "stage-past-blowups", "stage-bool", "missing-list",
        "empty-list"])
def test_malformed_smoothing_section_exits_two(tmp_path, edit, message):
    doc = documents.base()
    edit(doc)
    for command in ("verify", "export-dot"):
        assert documents.run(tmp_path, doc, command) == (2, "", f"error: {message}\n"), command


def test_boolean_self_intersection_exits_two(tmp_path):
    # a JSON boolean is never an integer
    doc = documents.base()
    curve = doc["curves"][0]
    curve["self"] = True
    for command in ("verify", "export-dot"):
        assert documents.run(tmp_path, doc, command) == (
            2, "", f"error: curve {curve['name']}.self: expected an integer, got True\n"), command


def test_smoothing_name_unknown_at_its_stage_exits_two(tmp_path):
    # E is k2's first exceptional curve: it exists after one blow-up, not before
    doc = builtin("enriques-k2")
    doc["plan"]["smoothing"]["stage"] = 0
    assert documents.run(tmp_path, doc) == (
        2, "", "error: plan.smoothing references curve 'E', absent after 0 blow-up(s)\n")


def test_undeclared_crossing_in_the_snc_divisor_exits_two(tmp_path):
    # without the point Q16, S1.G6 = 1 has no declared crossing: the SNC check
    # cannot decide, which is an input error, not a traceback
    doc = documents.base()
    doc["points"] = [p for p in doc["points"] if p["name"] != "Q16"]
    assert documents.run(tmp_path, doc) == (
        2, "", "error: S1.G6 = 1 but no declared points on the pair\n")


def test_failed_independence_certificate_fails_verify(tmp_path):
    # before any blow-up the nine I9 components and the nodal fiber F obey
    # F = G1 + ... + G9
    doc = documents.base()
    doc["plan"]["smoothing"] = {"stage": 0, "independent": [f"G{i}" for i in range(1, 10)] + ["F"],
                                "snc": ["S1", "S2"] + [f"G{i}" for i in range(1, 10)]}
    code, text, _ = documents.run(tmp_path, doc)
    assert code == 1
    lines = text.splitlines()
    assert "independence_rank=9" in lines
    assert "independence_relation=-G1-G2-G3-G4-G5-G6-G7-G8-G9+F" in lines
    assert [line for line in lines if line.startswith("violation=")] == [
        "violation=plan: independence[plan.smoothing]: rank 9 < 10 curves after 0 blow-up(s)"]
    assert lines[-1] == "status=fail"
    code, text, _ = documents.run(tmp_path, doc, "--output", "json", "verify")
    blob = json.loads(text)
    assert (code, blob["status"], blob["independence_rank"]) == (1, "fail", 9)
    assert blob["violations"] == [
        "plan: independence[plan.smoothing]: rank 9 < 10 curves after 0 blow-up(s)"]
    result = pipeline.run(parse_unvalidated(doc))
    assert [f.stage for f in result.failures] == ["plan"]


def test_failed_snc_certificate_fails_verify(tmp_path):
    # stated before step 4 (E) blows up the node N of the nodal fiber F: F
    # still has genus 1 and N is not a transverse crossing
    doc = documents.base()
    smoothing = doc["plan"]["smoothing"]
    smoothing["stage"] = 4
    smoothing["independent"].remove("E")
    smoothing["snc"].remove("E")
    code, text, _ = documents.run(tmp_path, doc)
    assert code == 1
    assert [line for line in text.splitlines() if line.startswith("violation=")] == [
        "violation=plan: snc-component[F]: component has genus 1, not rational",
        "violation=plan: snc-point[N]: non-transverse branch (multiplicity > 1)"]
    result = pipeline.run(parse_unvalidated(doc))
    assert [f.stage for f in result.failures] == ["plan", "plan"]


def _second_node_on_f(doc):
    doc["points"].append({"name": "Nc", "branches": [["F", 2]]})


def _step_through_three_curves(doc):
    doc["blowups"].append({"label": "T", "branches": [["S1", 1], ["G6", 1], ["G7", 1]]})


@pytest.mark.parametrize("edit, violations", [
    (_second_node_on_f, [
        "final: point[Nc]: multiplicity 2 exceeds genus budget of F",
        "plan: snc-point[Nc]: non-transverse branch (multiplicity > 1)"]),
    (_step_through_three_curves, [
        "final: point-pairing[G6.S1]: declared points account for 1 > pairing 0",
        "final: point-pairing[G7.S1]: declared points account for 1 > pairing 0",
        "final: point-pairing[G6.G7]: declared points account for 1 > pairing 0",
        "plan: plan-shape[chain0]: S1.G7 = 0, expected 1"]),
], ids=["genus-budget", "point-pairing"])
def test_final_stage_point_rule_fails_verify(tmp_path, edit, violations):
    """Faults that only the final stage's point rule sees.  Step 4 (E) blows
    up the node N of the genus-1 curve F, which leaves a second declared node
    Nc over F's genus budget; a step through S1, G6 and G7 lowers their
    mutual pairings below the crossings declared on them (Q16, Q17 and N67),
    and consumes none of them."""
    doc = documents.base()
    del doc["expect"]  # the extra step breaks the declared blow-up count too
    edit(doc)
    code, text, _ = documents.run(tmp_path, doc)
    assert code == 1
    assert [line for line in text.splitlines() if line.startswith("violation=")] == [
        f"violation={v}" for v in violations]
    code, text, _ = documents.run(tmp_path, doc, "--output", "json", "verify")
    assert code == 1 and json.loads(text)["violations"] == violations


@pytest.mark.parametrize("q", [1, 10**400], ids=["1", "10^400"])
def test_declared_q_on_an_enriques_ambient_fails_verify(tmp_path, q):
    doc = documents.base()
    doc["plan"]["q"] = q
    code, text, _ = documents.run(tmp_path, doc)
    lines = text.splitlines()
    assert code == 1
    assert [line for line in lines if line.startswith("violation=")] == [
        f"violation=plan: plan-q[plan.q]: declared q = {q}, but kind 'enriques' has q = 0"]
    assert not any(line.startswith("p_g=") for line in lines)
    assert lines[-1] == "status=fail"
    result = pipeline.run(parse_unvalidated(doc))
    assert [f.stage for f in result.failures] == ["plan"]


@pytest.mark.parametrize("q, line", [
    (1, "topology.c2=9 b2plus=3 b2minus=8"),
    (0, "topology.c2=9 b2plus=1 b2minus=6"),
], ids=["q1", "q0"])
def test_topology_on_kind_other_follows_the_declared_q(tmp_path, q, line):
    # b1 = 2q, b2 = c2 - 2 + 2*b1 and b2+ = 2*p_g + 1: with q = 1 the K^2 = 3
    # construction has p_g = 1, b2 = 11, b2+ = 3; with q = 0 the line is as before
    doc = documents.base()
    del doc["expect"]  # which declares p_g = 0
    doc["surface"]["kind"] = "other"
    doc["plan"]["q"] = q
    code, text, _ = documents.run(tmp_path, doc)
    lines = text.splitlines()
    assert code == 0 and lines[-1] == "status=pass"
    assert f"p_g={q}" in lines
    assert [x for x in lines if x.startswith("topology.")] == [line]


def _kind_other(chi, q):
    """The base construction on a kind-"other" ambient with the given chi and q."""
    doc = documents.base()
    del doc["fibration"], doc["expect"]
    doc["surface"] = {"kind": "other", "chi": chi, "K2": 0, "K_num_trivial": False}
    doc["plan"]["q"] = q
    return doc


@pytest.mark.parametrize("chi, q", [(0, 0), (-3, 0), (-3, 2)])
def test_negative_p_g_fails_verify(tmp_path, chi, q):
    # p_g = h^0(K) >= 0: chi - 1 + q < 0 is a plan violation, not a report
    code, text, _ = documents.run(tmp_path, _kind_other(chi, q))
    lines = text.splitlines()
    assert code == 1
    assert [line for line in lines if line.startswith("violation=")] == [
        f"violation=plan: plan-q[plan.q]: p_g = chi - 1 + q = {chi} - 1 + {q} = {chi - 1 + q},"
        " but p_g >= 0"]
    assert not any(line.startswith("p_g=") for line in lines)
    assert lines[-1] == "status=fail"


def test_chi_zero_with_q_one_passes_verify(tmp_path):
    # chi = 0 and q = 1, as on a ruled surface over an elliptic curve: p_g = 0
    code, text, _ = documents.run(tmp_path, _kind_other(0, 1))
    lines = text.splitlines()
    assert code == 0 and lines[-1] == "status=pass"
    assert "p_g=0" in lines and "q=1" in lines


def test_counted_crossings_keep_verify_bounded(tmp_path, fresh_env):
    # a blow-up at a point of multiplicity 10^12 leaves one crossing record
    # with a count, not 10^12 records: under a 256 MB address-space cap,
    # verify finishes with a verdict and no traceback
    genus, mult = 10**24, 10**12
    doc = {
        "surface": {"kind": "other", "chi": 1, "K2": 0, "K_num_trivial": False},
        "curves": [{"name": "C", "self": 0, "genus": genus, "Kdeg": 2 * genus - 2,
                    "tags": []}],
        "blowups": [{"label": "E", "branches": [["C", mult]]}],
    }
    cap = 256 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run([sys.executable, "-m", "qgsurf", "verify",
                           str(documents.write(tmp_path, doc))],
                          capture_output=True, text=True, env=fresh_env, timeout=60,
                          preexec_fn=limit_memory)
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "status=pass\n", "")
