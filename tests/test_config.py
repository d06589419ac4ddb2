import json

import pytest

import documents
from qgsurf import config as config_mod
from qgsurf.config import (
    export_dot,
    independence_certificate,
    parse,
    snc_certificate,
    validate,
)
from qgsurf.corpus import builtin
from qgsurf.errors import (
    DomainError,
    MissingPointDataError,
    SchemaError,
    UnknownCurveError,
    ValidationError,
)

MINIMAL = {
    "surface": {"kind": "enriques", "chi": 1, "K2": 0, "K_num_trivial": True},
    "curves": [{"name": "G1", "self": -2, "genus": 0, "Kdeg": 0, "tags": []}],
}


def doc_with(**overrides):
    out = json.loads(json.dumps(MINIMAL))
    out.update(overrides)
    return out


def test_parse_minimal():
    doc = parse(MINIMAL)
    cfg = doc.configuration
    assert len(cfg.curves) == 1
    assert cfg.curve("G1").self_int == -2
    assert cfg.blowup_count == 0
    assert cfg.ambient_K2 == 0


def test_parse_accepts_json_text():
    doc = parse(json.dumps(MINIMAL))
    assert doc.configuration.names == ("G1",)


def test_parse_corpus_k1_curve_count():
    doc = parse(builtin("enriques-k1"))
    assert len(doc.configuration.curves) == 13
    assert doc.configuration.fibration is not None
    assert len(doc.blowups) == 5


def test_parse_rejects_duplicate_keys_in_nested_objects():
    with pytest.raises(SchemaError, match="duplicate key 'kind'"):
        parse('{"surface": {"kind": "k3", "kind": "enriques"}}')


def test_parse_unknown_top_level_key():
    with pytest.raises(SchemaError):
        parse(doc_with(bogus=1))


def test_parse_missing_required_field():
    bad = doc_with()
    del bad["surface"]
    with pytest.raises(SchemaError):
        parse(bad)


def test_parse_pairing_unknown_curve():
    with pytest.raises(UnknownCurveError):
        parse(doc_with(pairing=[["G1", "G2", 1]]))


def test_parse_duplicate_curve_names():
    bad = doc_with(curves=MINIMAL["curves"] * 2)
    with pytest.raises(SchemaError):
        parse(bad)


def test_parse_forwards_validation_errors():
    bad = doc_with(curves=[{"name": "C", "self": -3, "genus": 0, "Kdeg": 0, "tags": []}])
    with pytest.raises(ValidationError) as info:
        parse(bad)
    assert any(v.kind == "adjunction" for v in info.value.violations)


def test_validate_adjunction_ok():
    cfg = parse(MINIMAL).configuration
    assert validate(cfg) == []


def test_validate_flags_bad_adjunction():
    bad = doc_with(
        surface={"kind": "other", "chi": 1, "K2": 0, "K_num_trivial": False},
        curves=[{"name": "C", "self": -3, "genus": 0, "Kdeg": 0, "tags": []}])
    cfg = config_mod.parse_unvalidated(bad).configuration
    violations = validate(cfg)
    assert any(v.kind == "adjunction" for v in violations)


def test_validate_flags_negative_genus():
    # 2g - 2 = -4 = C.C + K.C, so adjunction holds and only the genus fails
    bad = doc_with(
        surface={"kind": "other", "chi": 1, "K2": 0, "K_num_trivial": False},
        curves=[{"name": "C", "self": -4, "genus": -1, "Kdeg": 0, "tags": []}])
    cfg = config_mod.parse_unvalidated(bad).configuration
    assert [str(v) for v in validate(cfg)] == ["genus[C]: negative genus -1"]


def test_validate_nodal_fiber_is_clean():
    doc = doc_with(curves=[{"name": "F", "self": 0, "genus": 1, "Kdeg": 0, "tags": ["nodal-fiber"]}])
    cfg = parse(doc).configuration
    assert validate(cfg) == []


def test_validate_enriques_rational_must_be_minus_two():
    bad = doc_with(curves=[{"name": "C", "self": -4, "genus": 0, "Kdeg": 2, "tags": []}])
    cfg = config_mod.parse_unvalidated(bad).configuration
    assert any(v.kind == "enriques-rational" for v in validate(cfg))
    assert any(v.kind == "K-degree" for v in validate(cfg))


def test_validate_point_overcounting():
    bad = doc_with(
        curves=[{"name": "A", "self": -2, "genus": 0, "Kdeg": 0, "tags": []},
                {"name": "B", "self": -2, "genus": 0, "Kdeg": 0, "tags": []}],
        pairing=[["A", "B", 1]],
        points=[{"name": "P", "branches": [["A", 1], ["B", 1]]},
                {"name": "Q", "branches": [["A", 1], ["B", 1]]}])
    cfg = config_mod.parse_unvalidated(bad).configuration
    assert any(v.kind == "point-pairing" for v in validate(cfg))


def test_validate_permutation_invariant(corpus_results):
    cfg = corpus_results[documents.BASE].document.configuration
    assert validate(cfg) == []
    reorder = list(reversed(range(len(cfg.curves))))
    permuted = config_mod.Configuration(
        surface=cfg.surface,
        curves=tuple(cfg.curves[i] for i in reorder),
        pairing=tuple(tuple(cfg.pairing[i][j] for j in reorder) for i in reorder),
        points=cfg.points,
        fibration=cfg.fibration,
        blowup_count=cfg.blowup_count,
    )
    assert validate(permuted) == []
    # idempotent
    assert validate(permuted) == validate(permuted)


def test_independence_k1_candidates(corpus_results):
    cfg = corpus_results["enriques-k1"].document.configuration
    cert = independence_certificate(
        cfg, ["S1", "S2", "G1", "G2", "G3", "G5", "G6", "G7", "G8", "G9"])
    assert cert.rank == 10
    assert cert.verdict
    assert len(cert.test_matrix) == 10
    assert all(len(row) == 13 for row in cert.test_matrix)
    # golden witness: columns G1..G9, S1 of the pairing give the minor -18
    w = cert.witness
    assert (w.pivot_rows, w.pivot_cols) == (tuple(range(10)), tuple(range(10)))
    assert [cert.columns[j] for j in w.pivot_cols] == [f"G{i}" for i in range(1, 10)] + ["S1"]
    assert w.minor == -18 and w.relations == ()


def test_independence_fiber_components_alone(corpus_results):
    # nine cycle components: independent (rank 9); the relation to the fiber
    # class only appears once the nodal fiber joins the candidate set
    cfg = corpus_results["enriques-k1"].document.configuration
    nine = [f"G{i}" for i in range(1, 10)]
    cert = independence_certificate(cfg, nine)
    assert cert.rank == 9 and cert.verdict
    cert = independence_certificate(cfg, nine + ["F"])
    assert cert.rank == 9 and not cert.verdict
    # golden witness: the relation is the fiber class, F - (G1 + ... + G9)
    w = cert.witness
    assert w.pivot_rows == tuple(range(9))
    assert w.pivot_cols == (0, 1, 2, 3, 4, 5, 6, 7, 9)
    assert w.minor == 18
    assert w.relations == ((-1,) * 9 + (1,),)


def test_independence_unknown_curve(corpus_results):
    cfg = corpus_results[documents.BASE].document.configuration
    with pytest.raises(UnknownCurveError):
        independence_certificate(cfg, ["S1", "nope"])


def test_independence_without_candidates_is_a_domain_error(corpus_results):
    cfg = corpus_results[documents.BASE].document.configuration
    with pytest.raises(DomainError, match="at least one candidate curve"):
        independence_certificate(cfg, [])


def test_independence_permutation_and_monotonicity(corpus_results):
    cfg = corpus_results["enriques-k1"].document.configuration
    cands = ["S1", "S2", "G1", "G2", "G3", "G5", "G6", "G7", "G8", "G9"]
    base_rank = independence_certificate(cfg, cands).rank
    assert independence_certificate(cfg, list(reversed(cands))).rank == base_rank
    # appending a curve to the configuration cannot decrease the rank
    bigger = config_mod.Configuration(
        surface=cfg.surface,
        curves=cfg.curves + (config_mod.CurveClass("X", -2, 0, 0, frozenset()),),
        pairing=tuple(tuple(row) + (0,) for row in cfg.pairing)
        + (tuple([0] * len(cfg.curves)) + (-2,),),
        points=cfg.points,
        fibration=cfg.fibration,
    )
    assert independence_certificate(bigger, cands).rank >= base_rank


def test_snc_transverse_pair_clean():
    doc = doc_with(
        curves=[{"name": "A", "self": -2, "genus": 0, "Kdeg": 0, "tags": []},
                {"name": "B", "self": -2, "genus": 0, "Kdeg": 0, "tags": []}],
        pairing=[["A", "B", 1]],
        points=[{"name": "P", "branches": [["A", 1], ["B", 1]]}])
    cfg = parse(doc).configuration
    assert snc_certificate(cfg, ["A", "B"]) == []


def test_snc_triple_point_flagged():
    doc = doc_with(
        curves=[{"name": n, "self": -2, "genus": 0, "Kdeg": 0, "tags": []}
                for n in "ABC"],
        pairing=[["A", "B", 1], ["A", "C", 1], ["B", "C", 1]],
        points=[{"name": "P", "branches": [["A", 1], ["B", 1], ["C", 1]]}])
    cfg = parse(doc).configuration
    violations = snc_certificate(cfg, ["A", "B", "C"])
    assert any("triple point" in v.detail for v in violations)


def test_snc_missing_point_data():
    doc = doc_with(
        curves=[{"name": "A", "self": -2, "genus": 0, "Kdeg": 0, "tags": []},
                {"name": "B", "self": -2, "genus": 0, "Kdeg": 0, "tags": []}],
        pairing=[["A", "B", 1]])
    cfg = parse(doc).configuration
    with pytest.raises(MissingPointDataError):
        snc_certificate(cfg, ["A", "B"])


def test_snc_unknown_curve_names_the_first_unknown():
    cfg = parse(MINIMAL).configuration
    with pytest.raises(UnknownCurveError, match="^X$"):
        snc_certificate(cfg, ["G1", "X", "Y"])


def test_snc_node_is_not_simple_crossing():
    doc = doc_with(
        curves=[{"name": "F", "self": 0, "genus": 1, "Kdeg": 0, "tags": []}],
        points=[{"name": "N", "branches": [["F", 2]]}])
    cfg = parse(doc).configuration
    violations = snc_certificate(cfg, ["F"])
    kinds = {v.kind for v in violations}
    assert "snc-point" in kinds and "snc-component" in kinds


def test_export_dot_single_curve():
    out = export_dot(parse(MINIMAL).configuration)
    assert out.count("--") == 0
    assert '"G1" [label="G1 (-2)"];' in out


def test_export_dot_chain_path():
    doc = doc_with(
        curves=[{"name": f"C{i}", "self": s, "genus": 0, "Kdeg": s0, "tags": []}
                for i, (s, s0) in enumerate([(-4, 2), (-2, 0), (-3, 1), (-2, 0)])],
        surface={"kind": "other", "chi": 1, "K2": 0, "K_num_trivial": False},
        pairing=[["C0", "C1", 1], ["C1", "C2", 1], ["C2", "C3", 1]])
    out = export_dot(parse(doc).configuration)
    assert out.count("--") == 3
    for label in ["C0 (-4)", "C1 (-2)", "C2 (-3)", "C3 (-2)"]:
        assert label in out


def test_export_dot_corpus_has_nine_cycle(corpus_results):
    cfg = corpus_results["enriques-k1"].document.configuration
    out = export_dot(cfg)
    for i in range(1, 10):
        a, b = f"G{i}", f"G{i % 9 + 1}"
        assert f'"{a}" -- "{b}";' in out or f'"{b}" -- "{a}";' in out
    # a pair meeting twice is one edge labelled with its multiplicity
    assert out.count('"S1" -- "F"') == 1
    assert '"S1" -- "F" [label="2"];' in out
    # deterministic output
    assert out == export_dot(cfg)


def test_to_document_round_trip(corpus_results):
    for name, result in corpus_results.items():
        doc = result.document
        written = config_mod.to_document(doc)
        again = config_mod.parse(written)
        assert again.configuration == doc.configuration, name
        assert again.blowups == doc.blowups
        assert again.plan == doc.plan
        assert again.expect == doc.expect
        assert written["expect"] == builtin(name)["expect"], name
        # the smoothing section is written as read; k5 makes no smoothing claim
        raw = builtin(name)["plan"].get("smoothing")
        assert written["plan"].get("smoothing") == raw, name
        assert (raw is None) == (name == "enriques-k5-symplectic") == (doc.plan.smoothing is None)


def _expect_without(key):
    def edit(expect):
        del expect[key]
    return edit


def _expect_set(key, value):
    def edit(expect):
        expect[key] = value
    return edit


@pytest.mark.parametrize("edit", [
    _expect_set("extra", 1),
    _expect_without("p_g"),
    _expect_set("gcd", True),
    _expect_set("K2", "1"),
    _expect_set("chains", [None]),
], ids=["unknown-field", "missing-field", "gcd-bool", "K2-string", "chains-null"])
def test_parse_rejects_malformed_expect(edit):
    doc = documents.base()
    edit(doc["expect"])
    with pytest.raises(SchemaError, match=r"^expect"):
        parse(doc)


def test_declared_points_have_no_count():
    # only a blow-up writes a counted crossing record
    doc = doc_with(points=[{"name": "P", "branches": [["G1", 2]], "count": 2}])
    with pytest.raises(SchemaError, match=r"unknown field\(s\) \['count'\]"):
        parse(doc)


def test_parse_surface_kind_e_requires_n():
    doc = doc_with(surface={"kind": "e", "chi": 3, "K2": 0, "K_num_trivial": False})
    with pytest.raises(SchemaError):
        parse(doc)
    doc = doc_with(
        surface={"kind": "e", "n": 3, "chi": 3, "K2": 0, "K_num_trivial": False},
        curves=[{"name": "C", "self": -3, "genus": 0, "Kdeg": 1, "tags": []}])
    cfg = parse(doc).configuration
    assert cfg.surface.n == 3
    assert validate(cfg) == []


def test_validate_surface_kind_consistency():
    bad = doc_with(surface={"kind": "k3", "chi": 1, "K2": 0, "K_num_trivial": True})
    cfg = config_mod.parse_unvalidated(bad).configuration
    assert any(v.kind == "surface" for v in validate(cfg))
    bad = doc_with(surface={"kind": "e", "n": 2, "chi": 3, "K2": 0, "K_num_trivial": False})
    cfg = config_mod.parse_unvalidated(bad).configuration
    assert any(v.kind == "surface" for v in validate(cfg))


def test_validate_point_multiplicity_exceeds_genus():
    bad = doc_with(points=[{"name": "P", "branches": [["G1", 2]]}])
    cfg = config_mod.parse_unvalidated(bad).configuration
    assert any("genus budget" in v.detail for v in validate(cfg))


def test_parse_rejects_diagonal_pairing_entry():
    with pytest.raises(SchemaError):
        parse(doc_with(pairing=[["G1", "G1", 1]]))


def test_parse_rejects_duplicate_pairing_entry():
    doc = doc_with(
        curves=MINIMAL["curves"] + [{"name": "G2", "self": -2, "genus": 0,
                                     "Kdeg": 0, "tags": []}],
        pairing=[["G1", "G2", 1], ["G2", "G1", 1]])
    with pytest.raises(SchemaError):
        parse(doc)


def test_independence_invariant_under_curve_reorder(corpus_results):
    cfg = corpus_results["enriques-k1"].document.configuration
    cands = ["S1", "S2", "G1", "G2", "G3", "G5", "G6", "G7", "G8", "G9"]
    reorder = list(reversed(range(len(cfg.curves))))
    permuted = config_mod.Configuration(
        surface=cfg.surface,
        curves=tuple(cfg.curves[i] for i in reorder),
        pairing=tuple(tuple(cfg.pairing[i][j] for j in reorder) for i in reorder),
        points=cfg.points,
        fibration=cfg.fibration,
    )
    a = independence_certificate(cfg, cands)
    b = independence_certificate(permuted, cands)
    assert (a.rank, a.verdict) == (b.rank, b.verdict)


def test_parse_rejects_string_notes():
    with pytest.raises(SchemaError, match="notes"):
        parse(doc_with(notes="hi"))


def test_parse_rejects_non_string_note():
    with pytest.raises(SchemaError, match="notes"):
        parse(doc_with(notes=["ok", 5]))


def test_parse_rejects_non_string_name():
    with pytest.raises(SchemaError, match="name"):
        parse(doc_with(name=5))


def test_parse_rejects_string_two_sections():
    bad = documents.base()
    bad["fibration"]["two_sections"] = "S1"
    with pytest.raises(SchemaError, match="two_sections"):
        parse(bad)


@pytest.mark.parametrize("pairing", [5, "G1", {"G1": 1}, [[["G1"], "G1", 1]]],
                         ids=["int", "string", "object", "list-name"])
def test_parse_rejects_malformed_pairing(pairing):
    with pytest.raises(SchemaError, match="pairing"):
        parse(doc_with(pairing=pairing))


@pytest.mark.parametrize("points", [5, [{"name": ["p"], "branches": [["G1", 1]]}]],
                         ids=["int", "list-name"])
def test_parse_rejects_malformed_points(points):
    with pytest.raises(SchemaError, match="points"):
        parse(doc_with(points=points))


@pytest.mark.parametrize("key, value", [
    ("fibers", 5),
    ("fibers", [{"type": "I2", "components": [["G1"]]}]),
    ("multiple_fiber_disjoint_from", "G1"),
], ids=["fibers-int", "component-list", "disjoint-string"])
def test_parse_rejects_malformed_fibration(key, value):
    with pytest.raises(SchemaError, match=key.split("_")[0]):
        parse(doc_with(fibration={key: value}))


@pytest.mark.parametrize("n", [0, -1])
def test_validate_e_needs_positive_n(tmp_path, n):
    doc = doc_with(surface={"kind": "e", "n": n, "chi": n, "K2": 0, "K_num_trivial": False})
    cfg = config_mod.parse_unvalidated(doc).configuration
    surface = [v for v in validate(cfg) if v.kind == "surface"]
    assert [str(v) for v in surface] == [f"surface[e]: E(n) needs n >= 1, got n={n}"]
    with pytest.raises(ValidationError):
        parse(doc)
    code, out, _ = documents.run(tmp_path, doc)
    assert code == 1
    assert f"violation=base: surface[e]: E(n) needs n >= 1, got n={n}" in out
    assert out.endswith("status=fail\n")


_E_SURFACE = "surface[e]: E(n) has K = (n-2)F, so n={} needs K_num_trivial={}"
_E_K_DEGREE = "K-degree[{}]: numerically trivial K forces K.C = 0 before blow-ups"


@pytest.mark.parametrize("n, flag, curve, expected", [
    # a (-3)-curve of K-degree 1 on E(2) = a K3 surface, which has none
    (2, False, ("C", -3, 1), [_E_SURFACE.format(2, True)]),
    (2, True, ("C", -3, 1), [_E_K_DEGREE.format("C")]),
    # a section of E(1) has self-intersection -1 and K-degree -1
    (1, True, ("S", -1, -1), [_E_SURFACE.format(1, False), _E_K_DEGREE.format("S")]),
    (1, False, ("S", -1, -1), []),
    (3, True, ("S", -3, 1), [_E_SURFACE.format(3, False), _E_K_DEGREE.format("S")]),
], ids=["e2-false", "e2-true", "e1-true", "e1-false", "e3-true"])
def test_validate_e_needs_k_num_trivial_exactly_when_n_is_2(tmp_path, n, flag, curve, expected):
    """On E(n), K = (n - 2)F, so K is numerically trivial iff n = 2.  Before
    the rule, E(2) declared with the flag false passed verify with a
    (-3)-curve."""
    name, self_int, k_deg = curve
    doc = doc_with(
        surface={"kind": "e", "n": n, "chi": n, "K2": 0, "K_num_trivial": flag},
        curves=[{"name": name, "self": self_int, "genus": 0, "Kdeg": k_deg, "tags": []}])
    cfg = config_mod.parse_unvalidated(doc).configuration
    assert [str(v) for v in validate(cfg)] == expected
    assert documents.run(tmp_path, doc) == (
        1 if expected else 0,
        "".join(f"violation=base: {v}\n" for v in expected)
        + ("status=fail\n" if expected else "status=pass\n"), "")
