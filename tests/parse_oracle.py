"""The document parser's section parsers, each field's check written out
where it is read: the oracle of ``test_parse_oracle``.

``qgsurf.config`` runs the same checks on every record, through shared
pieces: ``_int_field`` reads a curve's integer fields, a branch list
formats its multiplicity location once per record, and the pairing
resolves each entry's names to curve indices once and keys its pairs by
index.  The functions here spell each check out in place, resolve the
pairing's names against the curve list and key its pairs by name.  The
field helpers, the JSON decoding and the sections written the same way in
both (surface, smoothing hypothesis, expectations) are the package's own.
"""

from __future__ import annotations

from qgsurf.config import (
    _CURVE_KEYS,
    _FIBER_KEYS,
    _FIBRATION_KEYS,
    _PLAN_KEYS,
    _POINT_KEYS,
    _STEP_KEYS,
    _TOP_KEYS,
    BlowupStep,
    Configuration,
    ContractionPlan,
    CurveClass,
    Document,
    PointSpec,
    _array,
    _as_bool,
    _as_int,
    _declared,
    _distinct,
    _name,
    _need,
    _no_extras,
    _parse_expect,
    _parse_smoothing,
    _parse_surface,
    _strings,
    decode,
)
from qgsurf.errors import SchemaError
from qgsurf.fibration import FiberSpec, FibrationData, parse_tag


def _parse_curve(obj) -> CurveClass:
    obj = _no_extras(obj, _CURVE_KEYS, "curves[]")
    name = _name(_need(obj, "name", "curves[]"), "curves[].name")
    where = f"curve {name}"
    tags = _strings(obj.get("tags", []), f"{where}.tags")
    return CurveClass(
        name=name,
        self_int=_as_int(_need(obj, "self", where), f"{where}.self"),
        genus=_as_int(_need(obj, "genus", where), f"{where}.genus"),
        K_deg=_as_int(_need(obj, "Kdeg", where), f"{where}.Kdeg"),
        tags=frozenset(tags),
    )


def _parse_pairing(raw, curves: tuple[CurveClass, ...]) -> tuple[tuple[int, ...], ...]:
    idx = {c.name: i for i, c in enumerate(curves)}
    grid = [[0] * len(curves) for _ in curves]
    for i, c in enumerate(curves):
        grid[i][i] = c.self_int
    seen_pairs = set()
    for item in _array(raw, "pairing"):
        if not isinstance(item, list) or len(item) != 3:
            raise SchemaError("pairing: entries are [nameA, nameB, value]")
        a, b, value = item
        if not isinstance(a, str) or not isinstance(b, str):
            raise SchemaError(f"pairing: curve names must be strings, got {a!r}, {b!r}")
        value = _as_int(value, f"pairing {a}.{b}")
        _declared((a, b), idx, "pairing")
        if a == b:
            raise SchemaError(f"pairing {a}.{b}: self-intersections belong in the curve entry")
        key = frozenset((a, b))
        if key in seen_pairs:
            raise SchemaError(f"pairing {a}.{b}: duplicate pair")
        seen_pairs.add(key)
        grid[idx[a]][idx[b]] = value
        grid[idx[b]][idx[a]] = value
    return tuple(tuple(row) for row in grid)


def _parse_branches(raw, where: str) -> tuple[tuple[str, int], ...]:
    """[curveName, multiplicity] pairs, shared by points and blow-up steps."""
    branches = []
    for item in _array(raw, f"{where}.branches"):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"{where}: each branch is [curveName, multiplicity]")
        cname, mult = item
        if not isinstance(cname, str):
            raise SchemaError(f"{where}: branch curve name must be a string")
        mult = _as_int(mult, f"{where}: branch multiplicity")
        if mult < 1:
            raise SchemaError(f"{where}: branch multiplicity must be >= 1")
        branches.append((cname, mult))
    return tuple(branches)


def _parse_points(raw, known: set[str]) -> tuple[PointSpec, ...]:
    points = []
    point_names = set()
    for item in _array(raw, "points"):
        item = _no_extras(item, _POINT_KEYS, "points[]")
        pname = _name(_need(item, "name", "points[]"), "points[].name")
        if pname in point_names:
            raise SchemaError(f"points: duplicate point name {pname!r}")
        point_names.add(pname)
        where = f"point {pname}"
        branches = _parse_branches(_need(item, "branches", where), where)
        if not branches:
            raise SchemaError(f"{where}: branches must be a nonempty list")
        _declared([c for c, _ in branches], known, where)
        points.append(PointSpec(name=pname, branches=branches))
    return tuple(points)


def _parse_fiber(raw, known: set[str]) -> FiberSpec:
    raw = _no_extras(raw, _FIBER_KEYS, "fibration.fibers[]")
    tag = _need(raw, "type", "fibration.fibers[]")
    reduced, mult_from_tag = parse_tag(tag)
    mult = _as_int(raw.get("multiplicity", mult_from_tag), "fibration.fibers[].multiplicity")
    if mult not in (1, 2):
        raise SchemaError("fibration.fibers[].multiplicity must be 1 or 2")
    if mult_from_tag == 2 and mult != 2:
        raise SchemaError(f"fiber tagged {tag!r} but multiplicity {mult}")
    if mult == 2:
        parse_tag("2" + reduced)  # the reduced type of a multiple fiber must be I_n
    where = "fibration.fibers[].components"
    components = _declared(_strings(raw.get("components", []), where), known, where)
    return FiberSpec(type=reduced, multiplicity=mult, components=components)


def _parse_fibration(obj, known: set[str]) -> FibrationData:
    obj = _no_extras(obj, _FIBRATION_KEYS, "fibration")
    fibers = tuple(_parse_fiber(raw, known)
                   for raw in _array(obj.get("fibers", []), "fibration.fibers"))

    def curve_names(key: str) -> tuple[str, ...]:
        where = f"fibration.{key}"
        return _distinct(_declared(_strings(obj.get(key, []), where), known, where), where)

    return FibrationData(
        fibers=fibers,
        two_sections=curve_names("two_sections"),
        multiple_fiber_disjoint_from=curve_names("multiple_fiber_disjoint_from"),
        generic_fiber_class_known=_as_bool(obj.get("generic_fiber_class_known", False),
                                           "fibration.generic_fiber_class_known"),
    )


def _parse_blowup(item) -> BlowupStep:
    item = _no_extras(item, _STEP_KEYS, "blowups[]")
    branches = _parse_branches(_need(item, "branches", "blowups[]"), "blowups[]")
    label = item.get("label")
    if label is not None:
        label = _name(label, "blowups[].label")
    return BlowupStep(branches=branches, label=label)


def _parse_plan(raw, steps: int) -> ContractionPlan:
    raw = _no_extras(raw, _PLAN_KEYS, "plan")
    chains = tuple(_strings(chain, "plan.chains[]")
                   for chain in _array(raw.get("chains", []), "plan.chains"))
    if not all(chains):
        raise SchemaError("plan.chains[]: expected a nonempty array of curve names")
    q = _as_int(raw.get("q", 0), "plan.q")
    if q < 0:
        raise SchemaError(f"plan.q: expected a non-negative integer, got {q!r}")
    smoothing = _parse_smoothing(raw["smoothing"], steps) if "smoothing" in raw else None
    return ContractionPlan(chains=chains, declared_q=q,
                           assumptions=_strings(raw.get("assumptions", []), "plan.assumptions"),
                           smoothing=smoothing)


def parse_unvalidated(document) -> Document:
    """Parse without the final validation pass (schema and names only)."""
    if isinstance(document, (str, bytes)):
        document = decode(document)
    document = _no_extras(document, _TOP_KEYS, "top level")

    surface = _parse_surface(_need(document, "surface", "top level"))
    raw_curves = _need(document, "curves", "top level")
    if not isinstance(raw_curves, list) or not raw_curves:
        raise SchemaError("curves: expected a nonempty array")
    curves = tuple(_parse_curve(c) for c in raw_curves)
    known = {c.name for c in curves}
    if len(known) != len(curves):
        raise SchemaError("curves: duplicate curve names")
    configuration = Configuration(
        surface=surface,
        curves=curves,
        pairing=_parse_pairing(document.get("pairing", []), curves),
        points=_parse_points(document.get("points", []), known),
        fibration=(_parse_fibration(document["fibration"], known)
                   if "fibration" in document else None),
    )

    blowups = tuple(_parse_blowup(item) for item in _array(document.get("blowups", []), "blowups"))
    plan = _parse_plan(document["plan"], len(blowups)) if "plan" in document else None
    name = document.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError(f"name: expected a string, got {name!r}")
    notes = _strings(document.get("notes", []), "notes")
    expect = _parse_expect(document["expect"]) if "expect" in document else None
    return Document(configuration=configuration, blowups=blowups, plan=plan, name=name,
                    notes=notes, expect=expect)
