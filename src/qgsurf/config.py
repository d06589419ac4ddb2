"""Curve-configuration data model: the input format, validation, certificates.

A configuration is a finite set of named curves on an ambient surface with
their exact intersection pairing, canonical degrees, arithmetic genera,
declared intersection points, and optional elliptic-fibration annotations.
A document adds a blow-up list and a contraction plan; this module owns the
whole document format: ``parse_unvalidated`` reads every section and
``to_document`` writes every section.  All data are integers; derived
linear algebra is exact.

Each record has one parser, which reads it once, field by field, and each
field's rule is written once.  A location that names a record by its name,
such as ``curve G1.self``, reaches the field checks as a template and its
fields, and is formatted only when a check raises.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .errors import (
    DomainError,
    MissingPointDataError,
    QgsurfError,
    SchemaError,
    UnknownCurveError,
    ValidationError,
    Violation,
    digit_limit,
)
from .fibration import FiberSpec, FibrationData, parse_tag
from .ratlin import Elimination, eliminate

# the curve name and the multiplicity of a (name, multiplicity) branch
_branch_curve, _branch_multiplicity = itemgetter(0), itemgetter(1)


class _Kind(NamedTuple):
    """What an ambient kind fixes; "other" fixes nothing (Cossec-Dolgachev;
    Barth-Hulek-Peters-Van de Ven V.12).  ``fixed``: (chi, K2, K_num_trivial).
    ``h11`` = c2 - 2 - 2p_g = 10chi bounds the Picard number.  ``pi1`` = |pi_1|,
    finite, so q = b1 / 2 = 0; the index criterion needs Z/2.  ``doubles`` bounds
    the double fibers: K = (chi - 2)F + sum (m_i - 1)F_i, m_i F_i = F, gives two
    where K = 0 and chi = 1, none where chi = 2, and none beside a section (E(n))."""

    fixed: Optional[tuple[int, int, bool]]
    h11: Optional[int]  # per unit of n on E(n)
    pi1: Optional[int]
    doubles: Optional[int]


_KINDS = {"enriques": _Kind((1, 0, True), 10, 2, 2), "k3": _Kind((2, 0, True), 20, 1, 0),
          "e": _Kind(None, 10, 1, 0), "other": _Kind(None, None, None, None)}
SURFACE_KINDS = tuple(_KINDS)


class SurfaceInvariants(NamedTuple):
    kind: str
    chi: int
    K2: int
    K_num_trivial: bool
    n: Optional[int] = None  # declared for kind == "e"

    @property
    def rho_max(self) -> Optional[int]:
        h11, n = _KINDS[self.kind].h11, self.n
        return h11 if n is None else h11 * n if n >= 1 else None

    @property
    def q(self) -> Optional[int]:
        return None if _KINDS[self.kind].pi1 is None else 0

    @property
    def max_double_fibers(self) -> Optional[int]:
        return _KINDS[self.kind].doubles

    @property
    def pi1_criterion_applies(self) -> bool:
        return _KINDS[self.kind].pi1 == 2

    @property
    def i9_lint_applies(self) -> bool:
        return self.rho_max == 10 and self.chi == 1


class CurveClass(NamedTuple):
    name: str
    self_int: int
    K_deg: int
    genus: int
    tags: frozenset[str] = frozenset()

    def adjunction_holds(self) -> bool:
        return 2 * self.genus - 2 == self.self_int + self.K_deg


class PointSpec(NamedTuple):
    """A point and the branches (curve, multiplicity) through it.  A blow-up
    writes the transverse crossings of its exceptional curve with one branch
    curve as one record with ``count`` > 1; declared points are single."""

    name: str
    branches: tuple[tuple[str, int], ...]
    count: int = 1


class BlowupStep(NamedTuple):
    """One blow-up: the new exceptional curve's label and the branches
    (curve, multiplicity) passing through the blown-up point."""

    branches: tuple[tuple[str, int], ...]
    label: Optional[str] = None


class SmoothingHypothesis(NamedTuple):
    """The obstruction-vanishing hypothesis a plan relies on (Lee-Park): after
    ``stage`` blow-ups the curves ``independent`` are numerically independent
    and the divisor ``snc`` is simple normal crossing."""

    stage: int
    independent: tuple[str, ...]
    snc: tuple[str, ...]


class ContractionPlan(NamedTuple):
    chains: tuple[tuple[str, ...], ...]
    declared_q: int = 0
    assumptions: tuple[str, ...] = ()
    smoothing: Optional[SmoothingHypothesis] = None


class IndependenceCertificate(NamedTuple):
    """Rank of the (candidates x all curves) pairing matrix, with its witness.

    Row i of ``test_matrix`` is candidate i paired with every curve, named in
    ``columns``; the witness indexes rows and columns the same way.
    """

    candidates: tuple[str, ...]
    columns: tuple[str, ...]
    test_matrix: tuple[tuple[int, ...], ...]
    rank: int
    verdict: bool
    witness: Elimination


class _NameTable(dict):
    """Curve name -> position in ``Configuration.curves``."""

    __slots__ = ()

    def __missing__(self, name):
        raise UnknownCurveError(name)


class _ConfigurationFields(NamedTuple):
    surface: SurfaceInvariants
    curves: tuple[CurveClass, ...]
    pairing: tuple[tuple[int, ...], ...]  # symmetric, diagonal = self_int
    points: tuple[PointSpec, ...] = ()
    fibration: Optional[FibrationData] = None
    blowup_count: int = 0


class Configuration(_ConfigurationFields):
    """A surface's named curves with their pairing, points and fibration.

    The fields are the named tuple ``_ConfigurationFields``; the curve-name
    table ``position`` lives in the instance ``__dict__``, outside equality
    and hashing.  ``_replace`` returns a new instance, which builds its own
    table from its own curves; a blow-up stage made by ``_child`` starts
    with a copy of its parent's table.
    """

    @cached_property
    def position(self) -> _NameTable:
        """Curve name -> index in ``curves``: a missing name raises
        UnknownCurveError, and ``.get`` returns None."""
        return _NameTable((c.name, i) for i, c in enumerate(self.curves))

    def _child(self, label: str, curves: tuple[CurveClass, ...],
               pairing: tuple[tuple[int, ...], ...], points: tuple[PointSpec, ...]
               ) -> Configuration:
        """The stage after one blow-up: the given fields, one more blow-up,
        and this stage's name table plus ``label``, the last of ``curves``."""
        table = _NameTable(self.position)
        table[label] = len(self.curves)
        child = self._make((self.surface, curves, pairing, points, self.fibration,
                            self.blowup_count + 1))
        child.__dict__["position"] = table
        return child

    def curve(self, name: str) -> CurveClass:
        return self.curves[self.position[name]]

    def pairing_of(self, a: str, b: str) -> int:
        return self.pairing[self.position[a]][self.position[b]]

    @property
    def ambient_K2(self) -> int:
        return self.surface.K2 - self.blowup_count

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.curves)


class Expectation(NamedTuple):
    """The values a document declares that its run must reproduce."""

    K2: int
    blowups: int
    chains: tuple[tuple[int, ...], ...]   # compared as a multiset
    indices: tuple[int, ...]              # in plan order
    gcd: int
    pi1: str
    moduli_dim: int
    p_g: int


class Document(NamedTuple):
    """A parsed input file: configuration plus its blow-up list, plan and
    expectations."""

    configuration: Configuration
    blowups: tuple[BlowupStep, ...] = ()
    plan: Optional[ContractionPlan] = None
    name: Optional[str] = None
    notes: tuple[str, ...] = ()
    expect: Optional[Expectation] = None


_TOP_KEYS = {"surface", "curves", "pairing", "points", "fibration", "blowups", "plan", "name",
             "notes", "expect"}
_SURFACE_KEYS = {"kind", "n", "chi", "K2", "K_num_trivial"}
_CURVE_KEYS = {"name", "self", "genus", "Kdeg", "tags"}
_POINT_KEYS = {"name", "branches"}
_FIBRATION_KEYS = {"fibers", "two_sections", "multiple_fiber_disjoint_from"}
_FIBER_KEYS = {"type", "multiplicity", "components"}
_STEP_KEYS = {"label", "branches"}
_PLAN_KEYS = {"chains", "q", "assumptions", "smoothing"}
_SMOOTHING_KEYS = {"stage", "independent", "snc"}
_EXPECT_KEYS = set(Expectation._fields)


def _at(where: str, fields: tuple) -> str:
    """The location ``where``, its ``{}`` fields filled in from ``fields`` if any."""
    return where.format(*fields) if fields else where


def _need(mapping: dict, key: str, where: str, fields: tuple = ()):
    if key not in mapping:
        raise SchemaError(f"{_at(where, fields)}: missing required field '{key}'")
    return mapping[key]


def _no_extras(value, allowed: set, where: str) -> dict:
    """The value as an object whose fields are all in ``allowed``."""
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object")
    if not allowed.issuperset(value):
        raise SchemaError(f"{where}: unknown field(s) {sorted(value.keys() - allowed)}")
    return value


def _array(value, where: str, fields: tuple = ()) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{_at(where, fields)}: expected an array, got {value!r}")
    return value


def _as_int(value, where: str, fields: tuple = ()) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{_at(where, fields)}: expected an integer, got {value!r}")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{where}: expected a boolean")
    return value


def _name(value, where: str) -> str:
    """A curve name, point name, blow-up label or pi_1 verdict: a nonempty string."""
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{where}: expected a nonempty string")
    return value


def _ints(value, where: str) -> tuple[int, ...]:
    """An array of integers: a chain or a list of indices."""
    return tuple(_as_int(item, where) for item in _array(value, where))


def _strings(value, where: str, fields: tuple = ()) -> tuple[str, ...]:
    """An array of strings: curve names, tags, notes or assumptions."""
    for item in _array(value, where, fields):
        if not isinstance(item, str):
            raise SchemaError(
                f"{_at(where, fields)}: expected an array of strings, got element {item!r}")
    return tuple(value)


def _distinct(names: tuple[str, ...], where: str) -> tuple[str, ...]:
    if len(set(names)) != len(names):
        repeated = next(n for i, n in enumerate(names) if n in names[:i])
        raise SchemaError(f"{where}: duplicate curve name {repeated!r}")
    return names


def _declared(names, known, where: str, fields: tuple = ()):
    for name in names:
        if name not in known:
            raise UnknownCurveError(f"{_at(where, fields)} references undeclared curve {name!r}")
    return names


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` for json.loads: a repeated key is an input error."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"duplicate key {key!r} in a JSON object")
            seen.add(key)
    return obj


def _parse_surface(obj) -> SurfaceInvariants:
    obj = _no_extras(obj, _SURFACE_KEYS, "surface")
    kind = _need(obj, "kind", "surface")
    if kind not in SURFACE_KINDS:
        raise SchemaError(f"surface.kind: unknown kind {kind!r}")
    n = obj.get("n")
    if kind == "e":
        if n is None:
            raise SchemaError("surface: kind 'e' requires 'n'")
        n = _as_int(n, "surface.n")
    elif n is not None:
        raise SchemaError("surface.n only applies to kind 'e'")
    chi = _as_int(_need(obj, "chi", "surface"), "surface.chi")
    k2 = _as_int(_need(obj, "K2", "surface"), "surface.K2")
    knt = _as_bool(_need(obj, "K_num_trivial", "surface"), "surface.K_num_trivial")
    return SurfaceInvariants(kind=kind, chi=chi, K2=k2, K_num_trivial=knt, n=n)


def _int_field(obj: dict, key: str, name: str) -> int:
    """The required integer field ``key`` of the record ``obj`` of the curve ``name``."""
    return _as_int(_need(obj, key, "curve {}", (name,)), "curve {}.{}", (name, key))


def _parse_curve(obj) -> CurveClass:
    obj = _no_extras(obj, _CURVE_KEYS, "curves[]")
    name = _name(_need(obj, "name", "curves[]"), "curves[].name")
    tags = _strings(obj.get("tags", []), "curve {}.tags", (name,))
    return CurveClass(
        name=name,
        self_int=_int_field(obj, "self", name),
        genus=_int_field(obj, "genus", name),
        K_deg=_int_field(obj, "Kdeg", name),
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
        _as_int(value, "pairing {}.{}", (a, b))
        i, j = idx.get(a), idx.get(b)
        if i is None or j is None:
            _declared((a, b), idx, "pairing")
        if i == j:
            raise SchemaError(f"pairing {a}.{b}: self-intersections belong in the curve entry")
        key = (i, j) if i < j else (j, i)
        if key in seen_pairs:
            raise SchemaError(f"pairing {a}.{b}: duplicate pair")
        seen_pairs.add(key)
        grid[i][j] = grid[j][i] = value
    return tuple(map(tuple, grid))


def _parse_branches(raw, record: str, name: str = "") -> tuple[tuple[str, int], ...]:
    """[curveName, multiplicity] pairs, shared by points and blow-up steps;
    ``record`` + ``name`` is the location, such as ``point P1`` or ``blowups[]``."""
    branches = []
    for item in _array(raw, "{}{}.branches", (record, name)):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"{record}{name}: each branch is [curveName, multiplicity]")
        cname, mult = item
        if not isinstance(cname, str):
            raise SchemaError(f"{record}{name}: branch curve name must be a string")
        if _as_int(mult, "{}{}: branch multiplicity", (record, name)) < 1:
            raise SchemaError(f"{record}{name}: branch multiplicity must be >= 1")
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
        branches = _parse_branches(_need(item, "branches", "point {}", (pname,)), "point ", pname)
        if not branches:
            raise SchemaError(f"point {pname}: branches must be a nonempty list")
        _declared(map(_branch_curve, branches), known, "point {}", (pname,))
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
    )


def _parse_blowup(item) -> BlowupStep:
    item = _no_extras(item, _STEP_KEYS, "blowups[]")
    branches = _parse_branches(_need(item, "branches", "blowups[]"), "blowups[]")
    label = item.get("label")
    if label is not None:
        label = _name(label, "blowups[].label")
    return BlowupStep(branches=branches, label=label)


def _parse_smoothing(raw, steps: int) -> SmoothingHypothesis:
    """The plan's smoothing hypothesis.  Its names are resolved by the
    pipeline, against the configuration after ``stage`` blow-ups."""
    raw = _no_extras(raw, _SMOOTHING_KEYS, "plan.smoothing")
    stage = _as_int(_need(raw, "stage", "plan.smoothing"), "plan.smoothing.stage")
    if not 0 <= stage <= steps:
        raise SchemaError(f"plan.smoothing.stage: expected 0..{steps} "
                          f"(the number of blow-ups), got {stage}")

    def curve_names(key: str) -> tuple[str, ...]:
        where = f"plan.smoothing.{key}"
        names = _distinct(_strings(_need(raw, key, "plan.smoothing"), where), where)
        if not names:
            raise SchemaError(f"{where}: expected a nonempty array of curve names")
        return names

    return SmoothingHypothesis(stage=stage, independent=curve_names("independent"),
                               snc=curve_names("snc"))


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


def _parse_expect(raw) -> Expectation:
    """The values the document's run must reproduce; every field is required."""
    raw = _no_extras(raw, _EXPECT_KEYS, "expect")
    field = {key: _need(raw, key, "expect") for key in Expectation._fields}
    return Expectation(
        K2=_as_int(field["K2"], "expect.K2"),
        blowups=_as_int(field["blowups"], "expect.blowups"),
        chains=tuple(_ints(chain, "expect.chains[]")
                     for chain in _array(field["chains"], "expect.chains")),
        indices=_ints(field["indices"], "expect.indices"),
        gcd=_as_int(field["gcd"], "expect.gcd"),
        pi1=_name(field["pi1"], "expect.pi1"),
        moduli_dim=_as_int(field["moduli_dim"], "expect.moduli_dim"),
        p_g=_as_int(field["p_g"], "expect.p_g"),
    )


def decode(data):
    """The JSON value of a document's text (str, or UTF-8 bytes).

    Text that is not UTF-8, not JSON, nested too deeply, holds an integer
    too long to convert or repeats a key within one object is a SchemaError.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        limit = digit_limit(exc)
        detail = exc if limit is None else (
            f"an integer literal has more than {limit} digits, the interpreter's limit "
            "for text-to-integer conversion")
        raise SchemaError(f"not valid JSON: {detail}") from None


def parse(document) -> Document:
    """Parse and validate a configuration document.

    Accepts JSON text (str, or UTF-8 bytes) or an already-decoded dict.
    Schema errors raise SchemaError, unresolved names raise
    UnknownCurveError, and mathematical inconsistencies raise
    ValidationError carrying all violations.
    """
    doc = parse_unvalidated(document)
    violations = validate(doc.configuration)
    if violations:
        raise ValidationError(violations)
    return doc


def parse_unvalidated(document) -> Document:
    """Parse without the final validation pass (schema and names only).

    Text (str or bytes) is decoded by ``decode`` first.
    """
    if isinstance(document, (str, bytes)):
        document = decode(document)
    document = _no_extras(document, _TOP_KEYS, "top level")

    surface = _parse_surface(_need(document, "surface", "top level"))
    raw_curves = _need(document, "curves", "top level")
    if not isinstance(raw_curves, list) or not raw_curves:
        raise SchemaError("curves: expected a nonempty array")
    curves = tuple(map(_parse_curve, raw_curves))
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

    blowups = tuple(map(_parse_blowup, _array(document.get("blowups", []), "blowups")))
    plan = _parse_plan(document["plan"], len(blowups)) if "plan" in document else None
    name = document.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError(f"name: expected a string, got {name!r}")
    notes = _strings(document.get("notes", []), "notes")
    expect = _parse_expect(document["expect"]) if "expect" in document else None
    return Document(configuration=configuration, blowups=blowups, plan=plan, name=name,
                    notes=notes, expect=expect)


def load_document(path: str) -> Document:
    """``parse_unvalidated`` of the file at ``path``; a file that cannot be
    read is a QgsurfError naming the path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise QgsurfError(f"cannot read {path}: {exc.strerror}") from None
    return parse_unvalidated(data)


def to_document(doc: Document) -> dict:
    """Re-serialize a parsed document to its JSON form (round-trips parse)."""
    cfg = doc.configuration
    out: dict = {}
    if doc.name is not None:
        out["name"] = doc.name
    if doc.notes:
        out["notes"] = list(doc.notes)
    surface = {"kind": cfg.surface.kind, "chi": cfg.surface.chi, "K2": cfg.surface.K2,
               "K_num_trivial": cfg.surface.K_num_trivial}
    if cfg.surface.n is not None:
        surface["n"] = cfg.surface.n
    out["surface"] = surface
    out["curves"] = [
        {"name": c.name, "self": c.self_int, "genus": c.genus, "Kdeg": c.K_deg,
         "tags": sorted(c.tags)}
        for c in cfg.curves
    ]
    pairing = []
    for i in range(len(cfg.curves)):
        for j in range(i + 1, len(cfg.curves)):
            if cfg.pairing[i][j]:
                pairing.append([cfg.curves[i].name, cfg.curves[j].name, cfg.pairing[i][j]])
    out["pairing"] = pairing
    out["points"] = [
        {"name": p.name, "branches": [[c, m] for c, m in p.branches]} for p in cfg.points
    ]
    fib = cfg.fibration
    if fib is not None:
        out["fibration"] = {
            "fibers": [{"type": f.tag, "multiplicity": f.multiplicity,
                        "components": list(f.components)} for f in fib.fibers],
            "two_sections": list(fib.two_sections),
            "multiple_fiber_disjoint_from": list(fib.multiple_fiber_disjoint_from),
        }
    if doc.blowups:
        out["blowups"] = [
            {"label": s.label, "branches": [[c, m] for c, m in s.branches]}
            for s in doc.blowups
        ]
    if doc.plan is not None:
        out["plan"] = {
            "chains": [list(ch) for ch in doc.plan.chains],
            "q": doc.plan.declared_q,
            "assumptions": list(doc.plan.assumptions),
        }
        hypothesis = doc.plan.smoothing
        if hypothesis is not None:
            out["plan"]["smoothing"] = {"stage": hypothesis.stage,
                                        "independent": list(hypothesis.independent),
                                        "snc": list(hypothesis.snc)}
    if doc.expect is not None:
        out["expect"] = {**doc.expect._asdict(),
                         "chains": [list(c) for c in doc.expect.chains],
                         "indices": list(doc.expect.indices)}
    return out


def validate(config: Configuration) -> list[Violation]:
    """All mathematical consistency violations, as data (never raises)."""
    out: list[Violation] = []
    s = config.surface
    if _KINDS[s.kind].fixed is not None:
        chi, k2, knt = _KINDS[s.kind].fixed
        if (s.chi, s.K2) != (chi, k2) or s.K_num_trivial is not knt:
            out.append(Violation("surface", s.kind,
                                 f"expected chi={chi}, K2={k2}, K_num_trivial={knt}"))
    elif s.kind == "e":
        if s.n < 1:
            out.append(Violation("surface", s.kind, f"E(n) needs n >= 1, got n={s.n}"))
        if s.chi != s.n or s.K2 != 0:
            out.append(Violation("surface", s.kind, f"E(n) needs chi=n={s.n} and K2=0"))
        if s.K_num_trivial is not (s.n == 2):
            out.append(Violation("surface", s.kind,
                                 f"E(n) has K = (n-2)F, so n={s.n} needs K_num_trivial={s.n == 2}"))

    for c in config.curves:
        if c.genus < 0:
            out.append(Violation("genus", c.name, f"negative genus {c.genus}"))
        if not c.adjunction_holds():
            out.append(Violation(
                "adjunction", c.name,
                f"2*{c.genus}-2 != {c.self_int} + {c.K_deg}"))
        if config.blowup_count == 0 and s.K_num_trivial and c.K_deg != 0:
            out.append(Violation("K-degree", c.name,
                                 "numerically trivial K forces K.C = 0 before blow-ups"))
        if (config.blowup_count == 0 and s.kind == "enriques"
                and c.genus == 0 and c.self_int != -2):
            out.append(Violation("enriques-rational", c.name,
                                 f"smooth rational curve must be a (-2)-curve, got {c.self_int}"))

    n = len(config.curves)
    pairing = config.pairing
    for i in range(n):
        if pairing[i][i] != config.curves[i].self_int:
            out.append(Violation("pairing-diagonal", config.curves[i].name,
                                 "diagonal differs from declared self-intersection"))
        for j in range(i + 1, n):
            if pairing[i][j] != pairing[j][i]:
                out.append(Violation("pairing-symmetry",
                                     f"{config.curves[i].name}.{config.curves[j].name}",
                                     "pairing not symmetric"))
            elif pairing[i][j] < 0:
                out.append(Violation("pairing-sign",
                                     f"{config.curves[i].name}.{config.curves[j].name}",
                                     f"negative off-diagonal {pairing[i][j]}"))

    out.extend(point_violations(config, config.points))
    if config.fibration is not None:
        out.extend(config.fibration.validate(config))
    return out


def _pair_totals(resolved) -> dict[tuple[int, int], int]:
    """The local intersection count*m_a*m_b of each pair of branches, summed
    over the points, at the pair's index pair (i, j), i <= j.  A point comes
    as (ids, branches, count), ``ids[x]`` the curve index of ``branches[x]``;
    pairs are keyed in the order they first occur."""
    local: dict[tuple[int, int], int] = {}
    for ids, branches, count in resolved:
        for (i, ma), (j, mb) in combinations(zip(ids, map(_branch_multiplicity, branches)), 2):
            key = (i, j) if i < j else (j, i)
            local[key] = local.get(key, 0) + count * ma * mb
    return local


def point_violations(config: Configuration, points: Sequence[PointSpec],
                     accounting: str = "declared points account for") -> list[Violation]:
    """The point rules, as data: every branch curve exists, none repeats, each
    multiplicity m fits its curve's genus (genus >= m(m-1)/2), and on each
    pair of curves the local intersections m_a*m_b, summed over the points,
    stay within the pairing.  Declared points and blow-up steps are both
    checked here.  A pair's violation names the pair in sorted order and
    compares with the pairing entry in that order; its detail opens with
    ``accounting``, which ``blow_up`` words for its step's own point."""
    out: list[Violation] = []
    position = config.position.get
    curves, pairing = config.curves, config.pairing
    sound = []  # (ids, branches, count) of the points that pass the branch rules
    for p in points:
        branches = p.branches
        ids = list(map(position, map(_branch_curve, branches)))
        if None in ids:
            unknown = branches[ids.index(None)][0]
            out.append(Violation("point", p.name, f"branch references unknown curve {unknown!r}"))
            continue
        if len(ids) > 1:
            if len(set(ids)) != len(ids):
                out.append(Violation("point", p.name, "repeated curve in branches"))
                continue
            sound.append((ids, branches, p.count))
        for (ca, ma), i in zip(branches, ids):
            if curves[i].genus < ma * (ma - 1) // 2:
                out.append(Violation("point", p.name,
                                     f"multiplicity {ma} exceeds genus budget of {ca}"))
    for (i, j), total in _pair_totals(sound).items():
        if total > pairing[i][j] or total > pairing[j][i]:
            a, b = curves[i].name, curves[j].name
            if b < a:
                i, j, a, b = j, i, b, a
            if total > pairing[i][j]:
                out.append(Violation("point-pairing", f"{a}.{b}",
                                     f"{accounting} {total} > pairing {pairing[i][j]}"))
    return out


def independence_certificate(config: Configuration, candidates: Sequence[str]) -> IndependenceCertificate:
    """Numerical independence of the candidates, tested against all curves.

    Builds the (candidates x all-curves) pairing matrix and computes its
    exact rank by integer elimination; full row rank certifies independence.
    Testing against every configured curve (not just the candidates) matters:
    curves outside the candidate set supply the eliminating intersections.
    The elimination's witness (pivots, nonzero minor, relations among the
    candidates) comes with the verdict.  An empty candidate list raises
    DomainError.
    """
    cand = tuple(candidates)
    if not cand:
        raise DomainError("independence certificate needs at least one candidate curve")
    test_matrix = tuple(config.pairing[config.position[c]] for c in cand)
    witness = eliminate(test_matrix)
    return IndependenceCertificate(candidates=cand, columns=config.names,
                                   test_matrix=test_matrix,
                                   rank=witness.rank, verdict=(witness.rank == len(cand)),
                                   witness=witness)


def snc_certificate(config: Configuration, divisor: Sequence[str]) -> list[Violation]:
    """Simple-normal-crossing check for the named divisor.

    Empty iff every point touching a divisor curve is a transverse crossing
    of at most two branches, every positive pairing inside the divisor is
    fully accounted for by declared points (a record with a count is that
    many crossings), and all divisor curves are rational.  A positive pairing with no declared points at all raises
    MissingPointDataError (the data cannot decide the question).
    """
    names = list(divisor)
    position, curves, pairing = config.position.__getitem__, config.curves, config.pairing
    ids = list(map(position, names))
    out: list[Violation] = []

    for name, i in zip(names, ids):
        if curves[i].genus != 0:
            out.append(Violation("snc-component", name,
                                 f"component has genus {curves[i].genus}, not rational"))

    # local intersections are summed only over the branches on the divisor:
    # the accounting below reads no other pair
    in_divisor = set(names)
    on_divisor = []
    for p in config.points:
        inside = [b for b in p.branches if b[0] in in_divisor]
        if not inside:
            continue
        if set(map(_branch_multiplicity, p.branches)) != {1}:
            out.append(Violation("snc-point", p.name,
                                 "non-transverse branch (multiplicity > 1)"))
        if len(p.branches) > 2:
            out.append(Violation("snc-point", p.name,
                                 f"triple point ({len(p.branches)} branches)"))
        if len(inside) > 1:
            on_divisor.append((list(map(position, map(_branch_curve, inside))), inside, p.count))
    accounted = _pair_totals(on_divisor)

    for x, (a, i) in enumerate(zip(names, ids)):
        row = pairing[i]
        for b, j in zip(names[x + 1:], ids[x + 1:]):
            entry = row[j]
            if entry <= 0:
                continue
            have = accounted.get((i, j) if i < j else (j, i), 0)
            if have == 0:
                raise MissingPointDataError(
                    f"{a}.{b} = {entry} but no declared points on the pair")
            if have != entry:
                out.append(Violation("snc-accounting", f"{a}.{b}",
                                     f"declared points account for {have} of pairing {entry}"))
    return out


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(config: Configuration) -> str:
    """Dual graph in DOT form: one vertex per curve, one edge per pair of
    curves that meet, labelled with the intersection number when it is above
    1; deterministic ordering."""
    lines = ["graph configuration {"]
    for c in config.curves:
        label = _dot_quote(f"{c.name} ({c.self_int})")
        lines.append(f"  {_dot_quote(c.name)} [label={label}];")
    n = len(config.curves)
    for i in range(n):
        for j in range(i + 1, n):
            m = config.pairing[i][j]
            if m > 0:
                label = f' [label="{m}"]' if m > 1 else ""
                lines.append(
                    f"  {_dot_quote(config.curves[i].name)}"
                    f" -- {_dot_quote(config.curves[j].name)}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"
