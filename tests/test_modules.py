"""The package's module graph, and the modules each entry point loads.

Every ``from .`` import sits at module level; a module that loads another
only when a function runs does so with ``importlib.import_module(".name",
__package__)``, and the graph counts that as an edge too, so it stays
acyclic whichever way a module is reached.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import documents
import qgsurf

PACKAGE_DIR = Path(qgsurf.__file__).resolve().parent
DOCUMENT = PACKAGE_DIR / "corpus_data" / f"{documents.BASE}.json"


def _deferred_import(node: ast.AST) -> str | None:
    """The module named by an ``importlib.import_module(".name", ...)`` call."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "import_module" and node.args
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith(".")):
        return node.args[0].value[1:]
    return None


def _relative_imports(tree: ast.Module) -> tuple[set[str], list[int]]:
    """(modules imported at module level or deferred, lines of nested relative imports)."""
    top, nested = set(), []
    for node in ast.walk(tree):
        deferred = _deferred_import(node)
        if deferred is not None:
            top.add(deferred)
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node not in tree.body:
            nested.append(node.lineno)
        elif node.module is None:
            top.update(alias.name for alias in node.names)
        else:
            top.add(node.module)
    return top, nested


def _graph() -> dict[str, set[str]]:
    graph = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        top, nested = _relative_imports(ast.parse(path.read_text()))
        assert nested == [], f"{path.name}: relative imports inside functions at {nested}"
        graph[path.stem] = top
    return graph


def test_module_graph_is_acyclic():
    graph = _graph()
    done: set[str] = set()
    while len(done) < len(graph):
        ready = {m for m, deps in graph.items() if m not in done and deps <= done}
        assert ready, f"import cycle among {sorted(set(graph) - done)}"
        done |= ready


def _fresh(env: dict, code: str, *argv: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          check=True, env=env, timeout=120).stdout


LOADED = "print(' '.join(sorted(m[7:] for m in sys.modules if m.startswith('qgsurf.'))))\n"


def test_config_reads_documents_without_blowup_or_smoothing(fresh_env):
    # what config loads on import and while it parses a document with every section
    code = (
        "import sys\n"
        "import qgsurf.config\n"
        "doc = qgsurf.config.parse_unvalidated(open(sys.argv[1], 'rb').read())\n"
        "assert doc.blowups and doc.plan and doc.configuration.fibration\n" + LOADED)
    loaded = _fresh(fresh_env, code, str(DOCUMENT)).split()
    assert loaded == ["config", "errors", "fibration", "ratlin"]


# only ``info`` and the scan (``wahl.exhaustive_scan``) load the kernel
CHAIN_SET = ["cli", "errors", "wahl"]
PIPELINE_SET = sorted(CHAIN_SET + ["blowup", "config", "fibration", "pipeline", "ratlin",
                                   "smoothing"])
# the standard-library modules a subcommand may leave unused: ``fractions``
# (which loads ``decimal``) for exact rationals, and ``json``
STDLIB = ("fractions", "decimal", "json")


@pytest.mark.parametrize("argv, loaded, stdlib", [
    (["chain", "5,2"], CHAIN_SET, []),
    (["--output", "json", "chain", "4,2,3,2"], CHAIN_SET, ["json"]),
    (["enumerate-classT", "--max-len", "4", "--max-entry", "6"], CHAIN_SET, []),
    (["info"], sorted(CHAIN_SET + ["kernel"]), []),
    (["verify", str(DOCUMENT)], PIPELINE_SET, list(STDLIB)),
    (["export-dot", str(DOCUMENT)], sorted(CHAIN_SET + ["config", "fibration", "ratlin"]),
     list(STDLIB)),
    (["example", documents.BASE], sorted(PIPELINE_SET + ["corpus"]), list(STDLIB)),
    (["verify-all"], sorted(PIPELINE_SET + ["corpus"]), list(STDLIB)),
], ids=["chain", "chain-json", "enumerate-classT", "info", "verify", "export-dot", "example",
        "verify-all"])
def test_each_subcommand_loads_only_its_modules(fresh_env, argv, loaded, stdlib):
    code = (
        "import io, sys\n"
        "from qgsurf import cli\n"
        "assert cli.run(sys.argv[1:], io.StringIO()) == 0\n"
        "print(*(m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')))\n"
        f"print(*(m for m in {STDLIB!r} if m in sys.modules))\n" + LOADED)
    flags, used, modules = _fresh(fresh_env, code, *argv).split("\n", 2)
    assert modules.split() == loaded
    # every record is a named tuple, so no subcommand loads dataclasses or
    # the inspect it imports
    assert flags.split() == ["False", "False", "False"]
    # a chain report builds no Fraction and a text report needs no json
    assert used.split() == stdlib


def test_no_module_imports_dataclasses():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [a.name for a in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def _is_surface_kind(node: ast.AST) -> bool:
    """``surface.kind`` or ``<anything>.surface.kind``."""
    if not (isinstance(node, ast.Attribute) and node.attr == "kind"):
        return False
    owner = node.value
    return (isinstance(owner, ast.Name) and owner.id == "surface"
            or isinstance(owner, ast.Attribute) and owner.attr == "surface")


def _surface_kind_comparisons(tree: ast.Module) -> list[int]:
    """Lines comparing a surface kind, directly or through a name bound to one."""
    bound = {target.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and _is_surface_kind(node.value)
             for target in node.targets if isinstance(target, ast.Name)}
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  and any(_is_surface_kind(operand) or isinstance(operand, ast.Name)
                          and operand.id in bound for operand in [node.left, *node.comparators]))


def test_only_config_compares_surface_kinds():
    # what a kind fixes is read from config.SurfaceInvariants, so a rule
    # elsewhere reads a fact, never the kind
    found = {path.name: _surface_kind_comparisons(ast.parse(path.read_text()))
             for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "config.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_surface_kind_comparisons_are_found():
    tree = ast.parse("kind = config.surface.kind\n"
                     "a = kind in KINDS\n"
                     "b = surface.kind == 'e'\n"
                     "c = 'k3' != self.surface.kind\n"
                     "d = violation.kind == 'surface'\n")
    assert _surface_kind_comparisons(tree) == [2, 3, 4]


def test_importing_the_package_loads_no_module(fresh_env):
    # the package binds no public name; ``from qgsurf import`` loads the
    # named submodules and what they import
    code = (
        "import sys\n"
        "import qgsurf\n" + LOADED +
        "from qgsurf import cli, corpus\n" + LOADED)
    bare, after_from = _fresh(fresh_env, code).split("\n")[:2]
    assert bare == ""
    assert {"cli", "corpus"} <= set(after_from.split())
    # a public name has one spelling, ``qgsurf.<module>.<name>``
    with pytest.raises(AttributeError):
        qgsurf.parse  # noqa: B018


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("tree", ["src", "tests", "perfbench"])
def test_sources_parse_as_python_3_10(tree):
    # the package supports Python 3.10 (pyproject's requires-python); a
    # newer construct, such as an ``except*`` clause, fails here on 3.11
    paths = sorted((ROOT / tree).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
