import os
import time
from pathlib import Path

import pytest

import qgsurf
from qgsurf import corpus, kernel

_scan_cache: dict = {}


def scan_full():
    """Exhaustive kernel scan at the acceptance bounds, computed once.

    Returns the scan's result and the seconds that one scan took, so that a
    runtime bound can cover the scan whichever test ran it first.
    """
    if "result" not in _scan_cache:
        start = time.monotonic()
        result = kernel.scan_chains(8, 12)
        _scan_cache["result"] = result, time.monotonic() - start
    return _scan_cache["result"]


@pytest.fixture(scope="session")
def corpus_results():
    """All six shipped examples, verified once per session."""
    return {r.document.name: r for r in corpus.verify_all()}


@pytest.fixture(scope="session")
def full_scan():
    """The (8, 12) scan's result and the seconds it took, as ``scan_full``."""
    return scan_full()


@pytest.fixture(scope="session")
def fresh_env():
    """The environment for a fresh interpreter that imports this package."""
    package_root = str(Path(qgsurf.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
