"""The package's module graph: acyclic, with every import at module level."""

import ast
import subprocess
import sys
from pathlib import Path

import qgsurf

PACKAGE_DIR = Path(qgsurf.__file__).resolve().parent


def _relative_imports(tree: ast.Module) -> tuple[set[str], list[int]]:
    """(modules imported at module level, lines of nested relative imports)."""
    top, nested = set(), []
    for node in ast.walk(tree):
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


def test_config_reads_documents_without_blowup_or_smoothing():
    # qgsurf/__init__ imports every module for its public names, so the
    # package is stubbed out to measure what config itself loads: on import,
    # and while it parses a document with every section.
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('qgsurf'); pkg.__path__ = [sys.argv[1]]\n"
        "sys.modules['qgsurf'] = pkg\n"
        "import qgsurf.config\n"
        "doc = qgsurf.config.parse_unvalidated(open(sys.argv[2], 'rb').read())\n"
        "assert doc.blowups and doc.plan and doc.configuration.fibration\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('qgsurf.'))))\n")
    document = PACKAGE_DIR / "corpus_data" / "enriques-k1.json"
    loaded = subprocess.run([sys.executable, "-c", code, str(PACKAGE_DIR), str(document)],
                            capture_output=True, text=True, check=True).stdout.split()
    assert loaded == ["qgsurf.config", "qgsurf.errors", "qgsurf.fibration", "qgsurf.ratlin"]
