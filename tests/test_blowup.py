import random

import pytest

from qgsurf import blowup, pipeline
from qgsurf.blowup import BlowupStep, apply_blowups, blow_up
from qgsurf.config import (
    Configuration,
    CurveClass,
    PointSpec,
    SurfaceInvariants,
    Violation,
    point_violations,
    validate,
)
from qgsurf.corpus import EXAMPLE_NAMES, builtin
from qgsurf import config as config_mod
from qgsurf.errors import SchemaError, ValidationError


def make_config(curves, pairs=(), kind="other", chi=1, K2=0, knt=False):
    names = [c[0] for c in curves]
    idx = {n: i for i, n in enumerate(names)}
    grid = [[0] * len(curves) for _ in curves]
    cc = []
    for i, (name, self_int, kdeg, genus) in enumerate(curves):
        grid[i][i] = self_int
        cc.append(CurveClass(name=name, self_int=self_int, K_deg=kdeg, genus=genus))
    for a, b, v in pairs:
        grid[idx[a]][idx[b]] = v
        grid[idx[b]][idx[a]] = v
    return Configuration(
        surface=SurfaceInvariants(kind=kind, chi=chi, K2=K2, K_num_trivial=knt),
        curves=tuple(cc),
        pairing=tuple(tuple(r) for r in grid),
    )


def test_blow_up_node():
    cfg = make_config([("F", 0, 0, 1)])
    out = blow_up(cfg, BlowupStep(branches=(("F", 2),), label="E"))
    f = out.curve("F")
    assert (f.self_int, f.K_deg, f.genus) == (-4, 2, 0)
    assert out.pairing_of("F", "E") == 2
    assert out.curve("E").self_int == -1
    assert out.blowup_count == 1
    assert out.ambient_K2 == cfg.ambient_K2 - 1
    assert validate(out) == []


def test_blow_up_transverse_crossing():
    cfg = make_config([("A", -2, 0, 0), ("B", -2, 0, 0)], [("A", "B", 1)])
    out = blow_up(cfg, BlowupStep(branches=(("A", 1), ("B", 1))))
    assert out.curve("A").self_int == -3
    assert out.curve("A").K_deg == 1
    assert out.pairing_of("A", "B") == 0
    assert out.pairing_of("A", "e1") == 1
    assert out.pairing_of("B", "e1") == 1
    assert validate(out) == []


def test_blow_up_point_off_every_curve():
    cfg = make_config([("A", -2, 0, 0)])
    out = blow_up(cfg, BlowupStep(branches=()))
    assert out.curve("A").self_int == -2
    assert out.pairing_of("A", "e1") == 0
    assert out.blowup_count == 1


def test_empty_blowup_list_is_identity():
    cfg = make_config([("A", -2, 0, 0)])
    assert apply_blowups(cfg, []) == cfg


def _kinds(exc_info):
    return [(v.kind, v.subject) for v in exc_info.value.violations]


def test_blow_up_excess_multiplicity():
    cfg = make_config([("A", -2, 0, 0), ("B", -2, 0, 0)], [("A", "B", 1)])
    with pytest.raises(ValidationError) as info:
        blow_up(cfg, BlowupStep(branches=(("A", 2), ("B", 1))))
    # A is rational, so the step breaks the genus rule too: both are listed
    assert _kinds(info) == [("point", "e1"), ("point-pairing", "A.B")]


def test_blow_up_negative_genus():
    cfg = make_config([("A", -2, 0, 0)])
    with pytest.raises(ValidationError) as info:
        blow_up(cfg, BlowupStep(branches=(("A", 2),)))
    assert _kinds(info) == [("point", "e1")]
    assert info.value.violations[0].detail == "multiplicity 2 exceeds genus budget of A"


def test_blow_up_unknown_curve():
    cfg = make_config([("A", -2, 0, 0)])
    with pytest.raises(ValidationError) as info:
        blow_up(cfg, BlowupStep(branches=(("Z", 1),)))
    assert info.value.violations == [
        Violation("point", "e1", "branch references unknown curve 'Z'")]


def test_blow_up_label_in_use():
    cfg = make_config([("A", -2, 0, 0)])
    with pytest.raises(SchemaError, match=r"^exceptional curve label 'A' already in use$"):
        blow_up(cfg, BlowupStep(branches=(), label="A"))


def test_apply_blowups_names_failing_step():
    cfg = make_config([("A", -2, 0, 0)])
    steps = [BlowupStep(branches=(("A", 1),), label="x1"),
             BlowupStep(branches=(("Z", 1),), label="x2")]
    with pytest.raises(ValidationError) as info:
        apply_blowups(cfg, steps)
    assert _kinds(info) == [("point", "x2")]
    assert str(info.value) == "step 1 (x2): point[x2]: branch references unknown curve 'Z'"


@pytest.mark.parametrize("branches, expected", [
    ((("A", 1), ("Z", 1)), [Violation("point", "P", "branch references unknown curve 'Z'")]),
    ((("A", 1), ("A", 1)), [Violation("point", "P", "repeated curve in branches")]),
    ((("G", 3),), [Violation("point", "P", "multiplicity 3 exceeds genus budget of G")]),
    ((("A", 1), ("G", 2)), [Violation("point-pairing", "A.G",
                                      "declared points account for 2 > pairing 1")]),
], ids=["unknown-curve", "repeated-curve", "genus-budget", "pair-budget"])
def test_declared_point_and_blowup_step_share_the_point_rules(branches, expected):
    """A declared point P is flagged by validate exactly as blow_up flags a
    step at P's branches: both run config.point_violations.  Only the
    pair-budget detail differs: a step's excess is its own point's."""
    cfg = make_config([("A", -2, 0, 0), ("G", 0, 2, 2)], [("A", "G", 1)])
    declared = cfg._replace(points=(PointSpec("P", branches),))
    assert validate(declared) == expected
    with pytest.raises(ValidationError) as info:
        blow_up(cfg, BlowupStep(branches=branches, label="P"))
    assert info.value.violations == [
        v._replace(detail=v.detail.replace("declared points account",
                                           "the blown-up point accounts"))
        for v in expected]


def test_exceptional_names_auto_increment():
    cfg = make_config([("A", -2, 0, 0), ("B", -2, 0, 0)], [("A", "B", 2)])
    out = apply_blowups(cfg, [BlowupStep(branches=(("A", 1), ("B", 1))),
                              BlowupStep(branches=(("A", 1), ("B", 1)))])
    assert out.names[-2:] == ("e1", "e2")


def test_point_consumption_tracks_blowups():
    doc = builtin("enriques-k2")
    parsed = config_mod.parse(doc)
    base = parsed.configuration
    assert any(p.name == "P1" for p in base.points)
    final = apply_blowups(base, parsed.blowups)
    assert not any(p.name == "P1" for p in final.points)  # node consumed
    # the node blow-up creates two crossings of F with its exceptional curve,
    # written as one record with count 2
    e_points = [p for p in final.points
                if {c for c, _ in p.branches} == {"E", "F"}]
    assert [p.count for p in e_points] == [2]


def test_counted_crossings_are_consumed_one_at_a_time():
    # a double point of the genus-1 curve A: its exceptional curve E meets A
    # in two points, one record with count 2; each blow-up at one of them
    # lowers the count, and the record goes with the last
    cfg = make_config([("A", 0, 0, 1)])
    cfg = blow_up(cfg, BlowupStep(branches=(("A", 2),), label="E"))
    assert cfg.points == (PointSpec("E:A", (("E", 1), ("A", 1)), count=2),)
    assert config_mod.snc_certificate(cfg, ["E", "A"]) == []
    crossing = BlowupStep(branches=(("E", 1), ("A", 1)))
    cfg = blow_up(cfg, crossing)
    assert [(p.name, p.count) for p in cfg.points] == [("E:A", 1), ("e2:E", 1), ("e2:A", 1)]
    cfg = blow_up(cfg, crossing)
    assert [p.name for p in cfg.points] == ["e2:E", "e2:A", "e3:E", "e3:A"]
    assert validate(cfg) == [] and cfg.pairing_of("E", "A") == 0
    with pytest.raises(ValidationError) as info:
        blow_up(cfg, crossing)
    assert _kinds(info) == [("point-pairing", "A.E")]


def _random_config(rng):
    n = rng.randint(1, 5)
    curves = []
    for i in range(n):
        genus = rng.randint(0, 2)
        self_int = rng.randint(-5, 2)
        curves.append((f"C{i}", self_int, 2 * genus - 2 - self_int, genus))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            pairs.append((f"C{i}", f"C{j}", rng.randint(0, 3)))
    return make_config(curves, pairs, chi=rng.randint(1, 3), K2=rng.randint(-3, 9))


def _random_step(rng, cfg, counter):
    names = list(cfg.names)
    shape = rng.random()
    label = f"x{counter}"
    if shape < 0.1 or not names:
        return BlowupStep(branches=(), label=label)
    if shape < 0.45:
        name = rng.choice(names)
        mult = 2 if (rng.random() < 0.3 and cfg.curve(name).genus >= 1) else 1
        return BlowupStep(branches=((name, mult),), label=label)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
             if cfg.pairing_of(a, b) >= 1]
    if not pairs:
        return BlowupStep(branches=((rng.choice(names), 1),), label=label)
    a, b = rng.choice(pairs)
    return BlowupStep(branches=((a, 1), (b, 1)), label=label)


def test_adjunction_conserved_over_randomized_sequences():
    """500 randomized valid blow-up sequences: adjunction holds for every
    curve at every step, ambient K^2 drops by exactly 1 per step, chi is
    untouched, the pairing stays symmetric and nonnegative off-diagonal,
    and the new exceptional curve meets only its branch curves."""
    rng = random.Random(20250809)
    for trial in range(500):
        cfg = _random_config(rng)
        for c in cfg.curves:
            assert c.adjunction_holds()
        for step_no in range(rng.randint(1, 5)):
            step = _random_step(rng, cfg, step_no)
            before_k2 = cfg.ambient_K2
            before_chi = cfg.surface.chi
            new = blow_up(cfg, step)
            assert validate(new) == point_violations(new, new.points)
            assert new.ambient_K2 == before_k2 - 1
            assert new.surface.chi == before_chi
            for c in new.curves:
                assert c.adjunction_holds(), (trial, step_no, c)
            grid = new.pairing
            m = len(grid)
            for i in range(m):
                for j in range(i + 1, m):
                    assert grid[i][j] == grid[j][i]
                    assert grid[i][j] >= 0
            label = step.label
            branch_names = {nm for nm, _ in step.branches}
            for c in new.curves:
                if c.name == label:
                    continue
                expected = dict(step.branches).get(c.name, 0)
                assert new.pairing_of(c.name, label) == expected
            cfg = new


def test_replay_names_step_and_keeps_validation_error(monkeypatch):
    violations = [Violation("genus", "A", "negative genus -1"),
                  Violation("adjunction", "A", "2*-1-2 != -2 + 0")]

    def refuse(config, step):
        raise ValidationError(violations)

    monkeypatch.setattr(blowup, "blow_up", refuse)
    cfg = make_config([("A", -2, 0, 0)])
    with pytest.raises(ValidationError) as info:
        blowup.replay(cfg, [BlowupStep(branches=(("A", 1),), label="x1")])
    assert info.value.violations == violations
    assert str(info.value) == ("step 0 (x1): genus[A]: negative genus -1; "
                               "adjunction[A]: 2*-1-2 != -2 + 0")


def test_replay_leaves_other_exceptions_alone(monkeypatch):
    bug = KeyError("A")

    def broken(config, step):
        raise bug

    monkeypatch.setattr(blowup, "blow_up", broken)
    cfg = make_config([("A", -2, 0, 0)])
    with pytest.raises(KeyError) as info:
        blowup.replay(cfg, [BlowupStep(branches=(("A", 1),))])
    assert info.value is bug
    assert info.value.args == ("A",)


def _random_declared_points(rng, cfg):
    """Points a valid base may declare: nodes on curves of genus >= 1 (each
    within its own genus budget, so two nodes on one genus-1 curve pass) and
    transverse crossings within the pairing."""
    points = []
    for c in cfg.curves:
        for _ in range(rng.randint(0, 2) if c.genus >= 1 else 0):
            points.append(PointSpec(f"N{len(points)}", ((c.name, 2),)))
    for i, a in enumerate(cfg.names):
        for b in cfg.names[i + 1:]:
            for _ in range(rng.randint(0, cfg.pairing_of(a, b))):
                points.append(PointSpec(f"X{len(points)}", ((a, 1), (b, 1))))
    return tuple(points)


def _random_later_step(rng, cfg, counter):
    """A random step, or now and then one through three curves that pairwise
    meet: blowing that up lowers each pairing without consuming a point."""
    names = cfg.names
    triples = [(a, b, c) for i, a in enumerate(names) for j, b in enumerate(names[i + 1:], i + 1)
               for c in names[j + 1:] if min(cfg.pairing_of(a, b), cfg.pairing_of(a, c),
                                             cfg.pairing_of(b, c)) >= 1]
    if triples and rng.random() < 0.2:
        return BlowupStep(branches=tuple((n, 1) for n in rng.choice(triples)),
                          label=f"x{counter}")
    return _random_step(rng, cfg, counter)


def test_later_stages_break_only_the_point_rule():
    """From a valid base, every stage after a blow-up breaks no rule of
    ``validate`` but the point rule: the surface and fibration are the
    base's, adjunction and genus >= 0 hold, the pairing keeps its diagonal
    and symmetry and stays nonnegative, and the K-degree and
    enriques-rational rules apply before blow-ups only.  This is why the
    pipeline checks only the point rule on the final stage."""
    stages = [stage for name in EXAMPLE_NAMES
              for stage in pipeline.run(config_mod.parse_unvalidated(builtin(name))).stages[1:]]
    rng = random.Random(20261019)
    broken = 0
    for trial in range(300):
        cfg = _random_config(rng)
        cfg = cfg._replace(points=_random_declared_points(rng, cfg))
        if validate(cfg):
            continue
        for step_no in range(rng.randint(1, 5)):
            try:
                cfg = blow_up(cfg, _random_later_step(rng, cfg, step_no))
            except ValidationError:
                break
            stages.append(cfg)
    for stage in stages:
        violations = point_violations(stage, stage.points)
        assert validate(stage) == violations, stage
        broken += bool(violations)
    assert broken > 20  # the sequences reach stages that do break the point rule
