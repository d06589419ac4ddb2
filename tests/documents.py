"""The passing document that mutant tests start from, and the writer and
command-line run that they share.

A test of one rule copies the base document, breaks that rule in the copy,
and runs ``qgsurf`` on it.  The base is ``enriques-k3-kondo7``: it passes
every check, its pairing has rank 10 (Num of an Enriques surface) and no
two of its plan's chains meet, so the copy fails only the rule its test
names.  Its curves: the I9 components ``G1`` .. ``G9``; the 2-sections
``S1`` (meeting G6 and G7) and ``S2`` (meeting G1 and G9), which cross at
``P1``; and the nodal fiber ``F``, whose node is the point ``N``.  Its ten
blow-ups are ``e1`` .. ``e4`` (at P1 and three S/F crossings), ``E`` (at N)
and the tower ``t1`` .. ``t5`` along S2, and its smoothing hypothesis is
stated after the first five, once E exists.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from qgsurf import cli
from qgsurf.corpus import builtin

BASE = "enriques-k3-kondo7"


def base() -> dict:
    """A fresh decoded copy of the base document."""
    return builtin(BASE)


def write(directory: Path, doc: dict | str, name: str = "doc.json") -> Path:
    """``doc`` written to ``directory / name``: a decoded document as JSON,
    a string as it is."""
    path = directory / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def run(directory: Path, doc: dict | str, *argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``qgsurf *argv FILE`` run in process,
    where FILE is ``doc`` written by ``write``; the command defaults to
    ``verify``."""
    path = write(directory, doc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run([*(argv or ("verify",)), str(path)], out=out)
    return code, out.getvalue(), err.getvalue()
