import io
import random
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgsurf import cli, corpus, ratlin, wahl
from qgsurf.errors import InvalidFractionError, NotClassTError
from qgsurf.wahl import (
    canonical_order,
    chain_from_fraction,
    discrepancies,
    fraction_text,
    generate_class_T,
    hj_value,
    index,
    k2_contribution,
    recognize_class_T,
    summarize,
)
from ratlin_oracle import chain_gram, is_negative_definite, solve_unique


def test_hj_single_entry():
    assert hj_value([4]) == Fraction(4, 1)


def test_hj_three_minus_one_third():
    assert hj_value([3, 3]) == Fraction(8, 3)


def test_hj_nested():
    assert hj_value([4, 2, 3, 2]) == Fraction(27, 8)


def test_hj_rejects_bad_entries():
    with pytest.raises(ValueError):
        hj_value([4, 1])
    with pytest.raises(ValueError):
        hj_value([])


@pytest.mark.parametrize("m, q, chain", [
    (4, 1, (4,)),
    (27, 8, (4, 2, 3, 2)),
    (169, 90, (2, 9, 2, 2, 2, 2, 3)),
])
def test_chain_from_fraction(m, q, chain):
    assert chain_from_fraction(m, q) == chain


@pytest.mark.parametrize("m, q", [(1, 1), (8, 2), (3, 5), (6, 0)])
def test_chain_from_fraction_rejects(m, q):
    with pytest.raises(InvalidFractionError):
        chain_from_fraction(m, q)


@pytest.mark.parametrize("chain, d, n, a", [
    ((4,), 1, 2, 1),
    ((9, 2, 2, 2, 2, 2), 1, 7, 1),
    ((4, 2, 3, 2), 3, 3, 1),
    ((3, 3), 2, 2, 1),
    ((5, 2), 1, 3, 1),
    ((7, 3, 2, 2, 2, 2), 2, 6, 1),
    ((5, 8, 6, 2, 3, 2, 2, 2, 2, 2, 3, 2, 2, 2), 1, 151, 31),
])
def test_recognizer_accepts(chain, d, n, a):
    data = recognize_class_T(chain)
    assert data is not None
    assert (data.d, data.n, data.a) == (d, n, a)
    assert data.m == d * n * n
    assert data.q == d * n * a - 1
    assert hj_value(chain) == Fraction(data.m, data.q)


@pytest.mark.parametrize("chain", [(5,), (2,), (2, 2), (3,), (2, 3, 2)])
def test_recognizer_rejects(chain):
    assert recognize_class_T(chain) is None


@pytest.mark.parametrize("chain, idx", [
    ((4,), 2),
    ((4, 2, 3, 2), 3),
    ((5, 2), 3),
    ((9, 2, 2, 2, 2, 2), 7),
    ((6, 2, 2), 4),
])
def test_index_values(chain, idx):
    assert index(chain) == idx


def test_index_rejects_non_members():
    with pytest.raises(NotClassTError):
        index([5])


def test_index_names_the_chain_an_iterator_held():
    # the entries are read once; the message used to print "chain ()"
    with pytest.raises(NotClassTError, match=r"^chain \(5,\) is not of the smoothable family$"):
        index(iter([5]))


def test_generate_smallest_bounds():
    assert generate_class_T(1, 4) == {(4,)}


@pytest.mark.parametrize("max_len", [1, 2, 3, 6])
def test_generate_nothing_below_entry_two(max_len):
    # every class-T chain has an entry >= 3, so entries capped at 1 give
    # none; the bounds are valid, not an error
    assert generate_class_T(max_len, 1) == set()


def test_generate_one_step_children():
    out = generate_class_T(2, 5)
    assert (5, 2) in out and (2, 5) in out


def test_generate_contains_deeper_chain():
    # one growth step away from the length-3 seed [3,2,3]
    assert (4, 2, 3, 2) in generate_class_T(4, 12)


def test_generator_matches_recognizer_small_bounds():
    max_len, max_entry = 5, 9
    generated = generate_class_T(max_len, max_entry)
    filtered = {
        chain
        for length in range(1, max_len + 1)
        for chain in product(range(2, max_entry + 1), repeat=length)
        if recognize_class_T(chain) is not None
    }
    assert generated == filtered


def test_discrepancies_known_values():
    assert discrepancies([4]) == (Fraction(-1, 2),)
    assert discrepancies([2, 2]) == (Fraction(0), Fraction(0))
    assert discrepancies([4, 2, 3, 2]) == (
        Fraction(-2, 3), Fraction(-2, 3), Fraction(-2, 3), Fraction(-1, 3))
    assert discrepancies([7, 3, 2, 2, 2, 2]) == (
        Fraction(-5, 6), Fraction(-5, 6), Fraction(-2, 3),
        Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 6))


@pytest.mark.parametrize("chain, value", [
    ((4,), 1),
    ((7, 3, 2, 2, 2, 2), 5),
    ((2, 2), 0),
    ((2, 9, 2, 2, 2, 2, 3), 7),
])
def test_k2_contribution(chain, value):
    assert k2_contribution(chain) == Fraction(value)


def test_reversal_symmetry_on_generated_set():
    for chain in generate_class_T(6, 9):
        fwd = recognize_class_T(chain)
        rev = recognize_class_T(tuple(reversed(chain)))
        assert rev is not None
        assert (fwd.d, fwd.n) == (rev.d, rev.n)


def test_generated_discrepancies_in_open_interval():
    for chain in generate_class_T(6, 9):
        data = recognize_class_T(chain)
        disc = discrepancies(chain)
        assert all(Fraction(-1) < a < Fraction(0) for a in disc), chain
        assert k2_contribution(chain) == len(chain) + 1 - data.d


def test_round_trip_small_exhaustive():
    for length in range(1, 5):
        for chain in product(range(2, 7), repeat=length):
            value = hj_value(chain)
            assert chain_from_fraction(value.numerator, value.denominator) == chain


@given(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_round_trip_random(entries):
    chain = tuple(entries)
    value = hj_value(chain)
    assert value.numerator > value.denominator >= 1
    assert chain_from_fraction(value.numerator, value.denominator) == chain


@given(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_chain_grams_negative_definite(entries):
    assert is_negative_definite(chain_gram(entries))


@pytest.mark.parametrize("call, entries, position", [
    (summarize, [2.7, 3], 1),
    (recognize_class_T, (4.9,), 1),
    (hj_value, ["4"], 1),
    (summarize, (4, 2, Fraction(3), 2), 3),
    (discrepancies, [3, Decimal(3)], 2),
    (k2_contribution, [3, 2, 3.0], 3),
])
def test_non_integer_entries_are_rejected_not_truncated(call, entries, position):
    with pytest.raises(ValueError, match=f"^entry {position} is not an integer: "):
        call(entries)


def test_integer_like_entries_are_accepted():
    # operator.index semantics: anything that is an integer, not a float
    np = pytest.importorskip("numpy")
    s = summarize(np.array([4, 2, 3, 2]))
    assert s.chain == (4, 2, 3, 2) and all(type(b) is int for b in s.chain)
    assert summarize(iter([4, 2, 3, 2])) == s


def test_canonical_order():
    chains = [(2, 5), (4,), (5, 2), (2, 2, 6)]
    assert canonical_order(chains) == [(4,), (2, 5), (5, 2), (2, 2, 6)]
    chains = generate_class_T(8, 11)
    assert canonical_order(chains) == sorted(chains, key=lambda c: (len(c), c))


def test_discrepancies_long_chains_frozen():
    # solved independently with a separate exact elimination prototype
    assert discrepancies([2, 2, 9, 2, 2, 2, 2, 4]) == tuple(
        Fraction(n, 19) for n in (-6, -12, -18, -17, -16, -15, -14, -13))
    assert discrepancies([2, 2, 7, 6, 2, 3, 2, 2, 2, 2, 4]) == tuple(
        Fraction(n, 73) for n in (-23, -46, -69, -72, -71, -70, -66, -62, -58, -54, -50))
    assert discrepancies([5, 8, 6, 2, 3, 2, 2, 2, 2, 2, 3, 2, 2, 2]) == tuple(
        Fraction(n, 151) for n in (-120, -147, -150, -149, -148, -144, -140,
                                   -136, -132, -128, -124, -93, -62, -31))
    assert discrepancies([9, 2, 2, 2, 2, 2]) == tuple(
        Fraction(n, 7) for n in (-6, -5, -4, -3, -2, -1))


def oracle_discrepancies(chain):
    return solve_unique(chain_gram(chain), [b - 2 for b in chain])


@given(st.lists(st.integers(min_value=2, max_value=15), min_size=1, max_size=14))
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_gaussian_oracle(entries):
    chain = tuple(entries)
    oracle = oracle_discrepancies(chain)
    assert discrepancies(chain) == oracle
    assert k2_contribution(chain) == -sum(
        (a * (b - 2) for a, b in zip(oracle, chain)), Fraction(0))


def test_closed_form_matches_oracle_on_generated_set():
    for chain in generate_class_T(8, 12):
        oracle = oracle_discrepancies(chain)
        assert discrepancies(chain) == oracle, chain
        assert k2_contribution(chain) == -sum(
            (a * (b - 2) for a, b in zip(oracle, chain)), Fraction(0)), chain


def test_report_paths_never_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_unique called off the test oracle")

    monkeypatch.setattr(ratlin, "solve_unique", refuse)
    monkeypatch.setattr(wahl, "solve_unique", refuse, raising=False)
    results = corpus.verify_all()
    assert [r.document.name for r in results if not r.passed] == []
    assert all(r.report is not None for r in results)
    code = cli.run(["enumerate-classT", "--max-len", "6", "--max-entry", "9"],
                   out=io.StringIO())
    assert code == 0


def fraction_value(chain):
    """b1 - 1/(b2 - 1/(... - 1/bl)), evaluated with Fraction from the end."""
    value = Fraction(chain[-1])
    for b in reversed(chain[:-1]):
        value = b - 1 / value
    return value


def gcd_class_t(value):
    """The recognizer's gcd test on a reduced value m/q, as (d, n, a) or None."""
    m, q = value.numerator, value.denominator
    g = gcd(m, q + 1)
    n, a = m // g, (q + 1) // g
    if n >= 2 and a < n and g % n == 0:
        return g // n, n, a
    return None


@given(st.lists(st.integers(min_value=2, max_value=15), min_size=1, max_size=14))
@settings(max_examples=300, deadline=None)
def test_summary_matches_independent_oracles(entries):
    chain = tuple(entries)
    s = summarize(entries)
    assert s.chain == chain
    value = fraction_value(chain)
    assert (s.m, s.q) == (value.numerator, value.denominator)
    assert s.value == hj_value(chain) == value
    assert chain_from_fraction(s.m, s.q) == chain
    oracle = oracle_discrepancies(chain)
    assert tuple(Fraction(x, s.m) for x in s.numerators) == oracle
    assert s.discrepancies == oracle
    assert s.contribution == Fraction(s.contribution_numerator, s.m) == -sum(
        (a * (b - 2) for a, b in zip(oracle, chain)), Fraction(0))
    expected = gcd_class_t(value)
    if expected is None:
        assert s.class_t is None
    else:
        assert (s.class_t.d, s.class_t.n, s.class_t.a) == expected


def test_summary_class_t_on_generated_set():
    for chain in generate_class_T(7, 10):
        s = summarize(chain)
        assert s.class_t is not None, chain
        assert (s.class_t.m, s.class_t.q) == (s.m, s.q)


@pytest.mark.parametrize("num, den", [
    (0, 1), (0, 7), (-4, 2), (-9, 3), (12, 4), (5, 1), (-1, 2), (-6, 9),
    (7, 3), (-120, 151), (151, 151), (-151, 151),
])
def test_fraction_text_cases(num, den):
    assert fraction_text(num, den) == str(Fraction(num, den))


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=10**4))
@settings(max_examples=300, deadline=None)
def test_fraction_text_matches_fraction(num, den):
    assert fraction_text(num, den) == str(Fraction(num, den))


def two_pass_summary(chain):
    """The summary as first written: two continuant lists, then the
    contribution summed over the numerators (the oracle for ``summarize``)."""
    def continuants(entries):
        xs, prev, cur = [1], 0, 1
        for b in entries:
            prev, cur = cur, b * cur - prev
            xs.append(cur)
        return xs

    left, right = continuants(chain), continuants(reversed(chain))
    m, q = left[-1], right[-2]
    numerators = tuple(x + y - m for x, y in zip(left, reversed(right[:-1])))
    return m, q, numerators, -sum(x * (b - 2) for x, b in zip(numerators, chain))


def test_summarize_matches_two_pass_oracle_on_seeded_chains():
    rng = random.Random(20261020)
    for _ in range(3000):
        chain = tuple(rng.randint(2, 15) for _ in range(rng.randint(1, 12)))
        s = summarize(chain)
        assert (s.m, s.q, s.numerators, s.contribution_numerator) == two_pass_summary(chain), chain
