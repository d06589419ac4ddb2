"""The package's section parsers against the per-field parsers of ``parse_oracle``.

The package runs the same per-field checks as the oracle, through shared
pieces of its own (see ``parse_oracle``).  Every field
of the six shipped documents is in turn replaced by each value of a fixed
list of bad values and deleted; an object also gains an unknown field, and
a list element is replaced by the one before it (a repeated record).
``config.parse_unvalidated`` must return a Document equal to the oracle's
or raise the same exception type with the same message, and that exception
must be a ``QgsurfError``.  A list of more than three elements is mutated
at its first, second and last element.  ``_Int(1)`` and ``_Str("G1")`` are
subclass instances, which a test of the exact type would misread; they
must parse as the per-field checks parse them.
"""

import copy

import pytest

import parse_oracle as oracle
from qgsurf.config import Document, parse_unvalidated
from qgsurf.corpus import EXAMPLE_NAMES, builtin
from qgsurf.errors import QgsurfError


class _Int(int):
    """An int that is not exactly ``int``, accepted wherever an integer is."""


class _Str(str):
    """A str that is not exactly ``str``, accepted wherever a string is."""


BAD_VALUES = (None, True, 1.5, -1, 0, 10**30, "", "G1", [], [None], {}, _Int(1), _Str("G1"))
DELETE, PREVIOUS, EXTRA = object(), object(), object()


def _paths(node, path=()):
    """Every field below ``node``; a list is walked at its first, second and last element."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = sorted({0, 1, len(node) - 1} & set(range(len(node))))
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from _paths(node[key], path + (key,))


def _mutated(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with the field at ``path`` set to ``value``, deleted
    (DELETE), set to the list element before it (PREVIOUS) or given an
    unknown field (EXTRA); only the containers along the path are copied."""
    root = node = copy.copy(doc)
    for key in path[:-1]:
        node[key] = copy.copy(node[key])
        node = node[key]
    last = path[-1]
    if value is DELETE:
        del node[last]
    elif value is PREVIOUS:
        node[last] = node[last - 1]
    elif value is EXTRA:
        node[last] = {**node[last], "extra": 1}
    else:
        node[last] = value
    return root


def _outcome(parse, doc):
    try:
        return parse(doc)
    except Exception as exc:  # compared with the oracle's, then required to be a QgsurfError
        return type(exc), str(exc)


def _mutants(doc: dict):
    for path in _paths(doc):
        yield path, DELETE
        field = doc
        for key in path:
            field = field[key]
        if isinstance(field, dict):
            yield path, EXTRA
        if isinstance(path[-1], int) and path[-1] > 0:
            yield path, PREVIOUS
        for value in BAD_VALUES:
            yield path, value


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_every_field_mutant_parses_as_the_oracle_parses(name):
    doc = builtin(name)
    assert _outcome(parse_unvalidated, doc) == _outcome(oracle.parse_unvalidated, doc)
    cases = documents = 0
    for path, value in _mutants(doc):
        mutant = _mutated(doc, path, value)
        got = _outcome(parse_unvalidated, mutant)
        assert got == _outcome(oracle.parse_unvalidated, mutant), (path, value)
        if isinstance(got, Document):
            documents += 1
        else:
            assert issubclass(got[0], QgsurfError), (path, value, got)
        cases += 1
    # most mutants are input errors, some still parse (an _Int, a new name)
    assert cases > 1000 and 0 < documents < cases
