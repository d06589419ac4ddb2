"""The pipeline's checks against the per-entry versions they replaced.

``point_violations``, ``validate``'s pairing loop, ``snc_certificate``,
``two_section_incidence_check`` and ``eliminate`` are compared with the
per-entry versions kept in ``pipeline_oracle`` on mutated stages of the
shipped documents and on random integer matrices: the violation lists must
be equal, in the same order, an input error must be the same error with
the same message, and the elimination witnesses must be equal.  The fiber
rule must pass and fail the I_n fibers that the I_n rule it replaced
passes and fails.  Every blow-up stage starts from a copy of its parent's
name table; each must resolve exactly its own curves.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipeline_oracle as oracle
from qgsurf import pipeline
from qgsurf.config import (
    PointSpec,
    parse_unvalidated,
    point_violations,
    snc_certificate,
    validate,
)
from qgsurf.corpus import EXAMPLE_NAMES, builtin
from qgsurf.errors import QgsurfError, UnknownCurveError, Violation
from qgsurf.fibration import two_section_incidence_check
from qgsurf.ratlin import eliminate

RUNS = {name: pipeline.run(parse_unvalidated(builtin(name))) for name in EXAMPLE_NAMES}
STAGES = [stage for result in RUNS.values() for stage in result.stages]
UNKNOWN = "no-such-curve"
# kinds validate reports before the pairing and the points
HEAD_KINDS = {"surface", "genus", "adjunction", "K-degree", "enriques-rational"}


@st.composite
def mutants(draw):
    """A stage with some pairing entries edited (symmetrically or on one
    side only, negative values included) and some points added: counted
    ones, ones through an unknown curve and ones repeating a curve."""
    cfg = draw(st.sampled_from(STAGES))
    n = len(cfg.curves)
    grid = [list(row) for row in cfg.pairing]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        grid[i][j] = value = draw(st.integers(-3, 5))
        if draw(st.booleans()):
            grid[j][i] = value
    points = list(cfg.points)
    if points and draw(st.booleans()):
        del points[draw(st.integers(0, len(points) - 1))]
    names = st.sampled_from(cfg.names + (UNKNOWN,))
    for k in range(draw(st.integers(0, 4))):
        branches = draw(st.lists(st.tuples(names, st.integers(1, 3)), min_size=1, max_size=4))
        if draw(st.booleans()):
            branches.append(branches[0])
        points.append(PointSpec(f"Q{k}", tuple(branches), count=draw(st.integers(1, 3))))
    return cfg._replace(pairing=tuple(map(tuple, grid)), points=tuple(points))


@given(mutants())
@settings(max_examples=300, deadline=None)
def test_point_violations_match_the_oracle(cfg):
    assert point_violations(cfg, cfg.points) == oracle.point_violations(cfg, cfg.points)


@given(mutants())
@settings(max_examples=300, deadline=None)
def test_validate_matches_the_per_entry_oracle(cfg):
    got = validate(cfg)
    head = [v for v in got if v.kind in HEAD_KINDS]
    fibration = cfg.fibration.validate(cfg) if cfg.fibration is not None else []
    assert got == (head + oracle.pairing_violations(cfg)
                   + oracle.point_violations(cfg, cfg.points) + fibration)


def _one_sided_edit(cfg, data, rows, columns):
    """The stage, or now and then the stage with one entry (a, b), a in
    ``rows`` and b in ``columns``, changed on that side only: a check that
    reads the pairing in the other order then disagrees with its oracle."""
    if not rows or not columns or not data.draw(st.booleans()):
        return cfg
    i = cfg.position[data.draw(st.sampled_from(rows))]
    j = cfg.position[data.draw(st.sampled_from(columns))]
    return _edit(cfg, i, j, cfg.pairing[i][j] + data.draw(st.sampled_from([-1, 1])), both=False)


def _outcome(check, *args):
    """What a check returns, or the type and message of the input error it raises."""
    try:
        return check(*args)
    except QgsurfError as exc:
        return type(exc), str(exc)


@given(mutants(), st.data())
@settings(max_examples=200, deadline=None)
def test_snc_certificate_matches_the_oracle(cfg, data):
    divisor = data.draw(st.lists(st.sampled_from(cfg.names + (UNKNOWN,)), min_size=1, max_size=8))
    cfg = _one_sided_edit(cfg, data, [n for n in divisor if n != UNKNOWN], cfg.names)
    assert _outcome(snc_certificate, cfg, divisor) == _outcome(oracle.snc_certificate, cfg, divisor)


@pytest.mark.parametrize("name", [n for n in EXAMPLE_NAMES
                                  if RUNS[n].document.plan.smoothing is not None])
@pytest.mark.parametrize("extra", [(), ("F",), ("F", UNKNOWN)], ids=["own", "F", "unknown"])
def test_snc_certificate_of_each_hypothesis_matches_the_oracle(name, extra):
    hypothesis = RUNS[name].document.plan.smoothing
    stage, divisor = RUNS[name].stages[hypothesis.stage], hypothesis.snc + extra
    got = _outcome(snc_certificate, stage, divisor)
    assert got == _outcome(oracle.snc_certificate, stage, divisor)
    if not extra:
        assert got == []
    elif UNKNOWN in extra:
        assert got == (UnknownCurveError, UNKNOWN)


@given(mutants(), st.data())
@settings(max_examples=100, deadline=None)
def test_two_section_check_matches_the_oracle(cfg, data):
    sections = data.draw(st.lists(st.sampled_from(cfg.names + (UNKNOWN,)), max_size=3))
    cfg = cfg._replace(fibration=cfg.fibration._replace(two_sections=tuple(sections)))
    components = [c for f in cfg.fibration.fibers for c in f.components]
    cfg = _one_sided_edit(cfg, data, [n for n in sections if n != UNKNOWN], components)
    assert (_outcome(two_section_incidence_check, cfg)
            == _outcome(oracle.two_section_incidence_check, cfg))


# (genus, self-intersection) of a curve that can sit in an I_n fiber or
# nearly: a smooth rational (-2)-curve, a nodal curve of square 0, a (-3)-curve
CURVE_KINDS = [(0, -2), (1, 0), (0, -3)]


@st.composite
def i_n_fibers(draw):
    """A configuration and one fully tracked I_n fiber in it: either n <= 6
    curves with pairings 0 to 2, drawn from a cycle or from nothing, or a
    shipped document's base with one pairing between two of its I9's
    components set to 0, 1 or 2."""
    if draw(st.booleans()):
        cfg = draw(st.sampled_from([run.stages[0] for run in RUNS.values()]))
        (fiber,) = [f for f in cfg.fibration.fibers if f.type == "I9"]
        a, b = draw(st.lists(st.sampled_from(fiber.components), min_size=2, max_size=2,
                             unique=True))
        return _edit(cfg, cfg.position[a], cfg.position[b], draw(st.integers(0, 2))), fiber
    n = draw(st.integers(1, 6))
    names = [f"C{i}" for i in range(n)]
    rational = draw(st.booleans())
    curves = [{"name": c, "genus": g, "self": s, "Kdeg": -2 - s + 2 * g, "tags": []}
              for c, (g, s) in zip(names, [(0, -2)] * n if rational else
                                   draw(st.lists(st.sampled_from(CURVE_KINDS),
                                                 min_size=n, max_size=n)))]
    pairs = list(itertools.combinations(range(n), 2))
    cycle = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    entries = dict.fromkeys(cycle, 1) if draw(st.booleans()) else {}
    for _ in range(draw(st.integers(0, 2))):
        if pairs:
            entries[draw(st.sampled_from(pairs))] = draw(st.integers(0, 2))
    doc = {"surface": {"kind": "other", "chi": 1, "K2": 0, "K_num_trivial": False},
           "curves": curves,
           "pairing": [[names[i], names[j], v] for (i, j), v in entries.items() if i != j],
           "fibration": {"fibers": [{"type": f"I{n}", "components": names}]}}
    cfg = parse_unvalidated(doc).configuration
    return cfg, cfg.fibration.fibers[0]


@given(i_n_fibers())
@settings(max_examples=400, deadline=None)
def test_fiber_rule_passes_the_i_n_fibers_the_i_n_rule_passes(case):
    cfg, fiber = case
    failed = any(v.subject == fiber.tag and v.detail.startswith("not a Kodaira ")
                 for v in cfg.fibration.validate(cfg))
    assert failed == (oracle.not_i_n(cfg, fiber.components) is not None)


def _k4_final():
    return RUNS["enriques-k4"].final


def _edit(cfg, i, j, value, both=True):
    grid = [list(row) for row in cfg.pairing]
    grid[i][j] = value
    if both:
        grid[j][i] = value
    return cfg._replace(pairing=tuple(map(tuple, grid)))


def _with_point(cfg, *branches, count=1):
    return cfg._replace(points=cfg.points + (PointSpec("Q", branches, count),))


@pytest.mark.parametrize("make, kinds", [
    (lambda c: _edit(c, 0, 1, -2), ["pairing-sign", "point-pairing"]),
    (lambda c: _edit(c, 1, 0, 3, both=False), ["pairing-symmetry"]),
    (lambda c: _edit(c, 2, 2, 0), ["pairing-diagonal"]),
    (lambda c: _with_point(c, ("G1", 1), (UNKNOWN, 1)), ["point"]),
    (lambda c: _with_point(c, ("G1", 1), ("G1", 1)), ["point"]),
    (lambda c: _with_point(c, ("G1", 2), ("G2", 1)), ["point", "point-pairing"]),
    (lambda c: _with_point(c, ("G2", 1), ("G1", 1), count=5), ["point-pairing"]),
], ids=["negative", "asymmetric", "diagonal", "unknown", "repeated", "multiplicity",
        "counted"])
def test_each_mutant_kind_is_caught_as_before(make, kinds):
    cfg = make(_k4_final())
    got = [v for v in validate(cfg) if v.kind not in HEAD_KINDS]
    assert got == oracle.pairing_violations(cfg) + oracle.point_violations(cfg, cfg.points)
    assert sorted({v.kind for v in got}) == sorted(set(kinds))


def test_point_pairing_names_the_pair_in_sorted_order():
    # branches listed as (G2, G1), with G1.G2 made asymmetric: the subject is
    # G1.G2 and the entry compared is the one in that order
    cfg = _k4_final()
    i, j = cfg.position["G1"], cfg.position["G2"]
    cfg = _with_point(_edit(cfg, i, j, 0, both=False), ("G2", 1), ("G1", 1))
    got = point_violations(cfg, cfg.points)
    assert got == oracle.point_violations(cfg, cfg.points)
    assert got[-1] == Violation("point-pairing", "G1.G2",
                                f"declared points account for {cfg.pairing[j][i] + 1} > pairing 0")


@st.composite
def int_matrices(draw):
    """Integer matrices up to 10 x 14, entries -4..4; some rows combine
    earlier ones, so both full and deficient ranks occur."""
    n_rows = draw(st.integers(1, 10))
    n_cols = draw(st.integers(1, 14))
    rows = []
    for _ in range(n_rows):
        if rows and draw(st.integers(0, 3)) == 0:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n_cols)])
        else:
            rows.append(draw(st.lists(st.integers(-4, 4), min_size=n_cols, max_size=n_cols)))
    return rows


@given(int_matrices())
@settings(max_examples=300, deadline=None)
def test_eliminate_matches_the_identity_block_oracle(rows):
    got, want = eliminate(rows), oracle.eliminate(rows)
    assert got == want
    if got.rank == len(rows):
        assert got.relations == ()


@pytest.mark.parametrize("name", [n for n in EXAMPLE_NAMES if RUNS[n].independence is not None])
def test_certificate_matrices_take_the_full_rank_path(name):
    matrix = RUNS[name].independence.test_matrix
    got = eliminate(matrix)
    assert got.rank == len(matrix) and got.relations == ()
    assert got == oracle.eliminate(matrix)


def test_rank_deficient_input_keeps_the_oracle_relations():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]]
    got = eliminate(rows)
    assert got == oracle.eliminate(rows)
    assert got.rank == 2 and got.relations == ((-2, 1, 0, 0), (-1, 0, -1, 1))


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_every_stage_resolves_exactly_its_own_curves(name):
    stages = RUNS[name].stages
    labels = [stage.curves[-1].name for stage in stages[1:]]
    for k, stage in enumerate(stages):
        table = {c.name: i for i, c in enumerate(stage.curves)}
        assert stage.position == table
        rebuilt = stage._replace()  # builds its table from its own curves
        assert rebuilt.position == table
        # the labels of later blow-ups are not curves of this stage
        for label in labels[k:] + [UNKNOWN]:
            assert label not in stage.position
            with pytest.raises(UnknownCurveError):
                stage.position[label]
