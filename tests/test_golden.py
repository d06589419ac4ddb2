"""The report format, pinned: ``verify`` and ``example`` on the six shipped
documents, in text and JSON, must print exactly the bytes in ``golden/``.

The files were written by the same commands before the pipeline's fast
paths went in; regenerate them only for a change that means to alter the
report, and list the changed lines with that change.
"""

import io
from pathlib import Path

import pytest

import qgsurf
from qgsurf import cli
from qgsurf.corpus import EXAMPLE_NAMES

GOLDEN = Path(__file__).resolve().parent / "golden"
DOCUMENTS = Path(qgsurf.__file__).resolve().parent / "corpus_data"
CASES = [(command, name, mode) for name in EXAMPLE_NAMES for mode in ("text", "json")
         for command in ("verify", "example")]


def test_every_golden_file_is_a_case():
    assert len(CASES) == 24
    expected = {f"{c}-{n}.{'txt' if m == 'text' else 'json'}" for c, n, m in CASES}
    assert {p.name for p in GOLDEN.iterdir()} == expected


@pytest.mark.parametrize("command, name, mode", CASES,
                         ids=[f"{c}-{n}-{m}" for c, n, m in CASES])
def test_output_is_byte_identical_to_the_golden_file(command, name, mode):
    argument = str(DOCUMENTS / f"{name}.json") if command == "verify" else name
    out = io.StringIO()
    assert cli.run(["--output", mode, command, argument], out) == 0
    golden = GOLDEN / f"{command}-{name}.{'txt' if mode == 'text' else 'json'}"
    assert out.getvalue().encode() == golden.read_bytes()
