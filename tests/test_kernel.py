"""Parity between the numpy scan kernel and its pure-Python reference, the
kernel's per-tail tests against per-child brute force, its per-length sign
count against every chain's determinant, and the size of the blocks the
kernel works in."""

import functools
import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest

from qgsurf import kernel
from qgsurf._kernel_py import scan_chains as py_scan
from qgsurf.wahl import generate_class_T, recognize_class_T
from ratlin_oracle import chain_gram, determinant


@functools.lru_cache(maxsize=None)
def _reference(max_len, max_entry):
    return py_scan(max_len, max_entry)


def _chunks(n):
    """CHUNK values around the table sizes n and n*n, for digits in n
    values: the walk starts at the empty chain (1, n - 1), at the length-1
    table (n, n + 1, n*n - 1) or at the length-2 table (n*n + 1)."""
    return sorted({1, n - 1, n, n + 1, n * n - 1, n * n + 1})


@pytest.mark.parametrize("max_len, max_entry, chunk", [
    pytest.param(1, 2, None, id="1-2"),
    pytest.param(3, 5, None, id="3-5"),
    pytest.param(5, 7, None, id="5-7"),
    pytest.param(6, 4, None, id="6-4"),
    # the last table, 7**4 chains, sits far below CHUNK: length 6 is tested
    # in 7 blocks of 7**4 tails
    pytest.param(6, 8, None, id="6-8"),
    # 40 holds 6**2 chains: lengths 3 to 5 are tested in blocks of 36 tails
    pytest.param(5, 7, 40, id="5-7-chunk40"),
] + [
    # walks that start at each of the first tables
    pytest.param(max_len, max_entry, chunk, id=f"{max_len}-{max_entry}-chunk{chunk}")
    for max_len, max_entry in [(5, 7), (4, 3), (3, 40)]
    for chunk in _chunks(max_entry - 1)
])
def test_backends_agree(max_len, max_entry, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(kernel, "CHUNK", chunk)
    assert kernel.scan_chains(max_len, max_entry) == _reference(max_len, max_entry)


@pytest.mark.parametrize("max_len, max_entry, chunk", [(5, 7, 10), (6, 8, 100)])
def test_hits_recognized_in_several_passes(max_len, max_entry, chunk, monkeypatch):
    """The prefilter's hits are collected across blocks and recognized
    together; a pass runs whenever the next block's hits would take the
    collection past CHUNK, so no pass holds more, and the passes together
    find what the reference finds."""
    monkeypatch.setattr(kernel, "CHUNK", chunk)
    recognize = kernel._Tally.recognize
    passes = []

    def counting(self):
        if self.hits:
            passes.append(self.collected)
        return recognize(self)

    monkeypatch.setattr(kernel._Tally, "recognize", counting)
    assert kernel.scan_chains(max_len, max_entry) == _reference(max_len, max_entry)
    assert len(passes) > 1
    assert max(passes) <= chunk


@pytest.mark.parametrize("max_len, max_entry", [(5, 30), (3, 300)])
def test_wide_entry_scans_match_the_generator(max_len, max_entry):
    """Shapes whose last table is small, walked in 873 and 301 blocks, at
    full size: every chain counted, none failing a check, and the accepted
    chains exactly the generated ones, sorted, as tuples of plain ints."""
    total, accepted, negdef, roundtrip = kernel.scan_chains(max_len, max_entry)
    assert total == sum((max_entry - 1) ** k for k in range(1, max_len + 1))
    assert (negdef, roundtrip) == (0, 0)
    assert accepted == sorted(generate_class_T(max_len, max_entry))
    assert all(type(chain) is tuple and all(type(b) is int for b in chain)
               for chain in accepted)


def _block_sizes(monkeypatch, max_len, max_entry):
    """{length: [(chains, array length) of each block tested at that length]}
    of one scan.  Every block is a block of tails, tested once per tail for
    the max_entry - 1 children of each."""
    sizes = {}
    children = kernel._Tally.children

    def tallying(self, length, tail, *args):
        sizes.setdefault(length, []).append(((max_entry - 1) * tail[0].size, tail[0].size))
        return children(self, length, tail, *args)

    monkeypatch.setattr(kernel._Tally, "children", tallying)
    kernel.scan_chains(max_len, max_entry)
    return sizes


@pytest.mark.parametrize("max_len, max_entry", [(6, 12), (3, 300), (12, 4)])
def test_blocks_hold_one_table_of_at_most_chunk(max_len, max_entry, monkeypatch):
    sizes = _block_sizes(monkeypatch, max_len, max_entry)
    n = max_entry - 1
    assert sorted(sizes) == list(range(1, max_len + 1))
    walked = set()
    for length, blocks in sizes.items():
        chains, arrays = zip(*blocks)
        assert sum(chains) == n ** length
        assert max(arrays) <= kernel.CHUNK, length
        # every length below the last table's children is tested in one
        # piece; every longer one in blocks the size of the last table
        if len(blocks) > 1:
            walked.update(arrays)
    (tails,) = walked
    base = 0
    while n ** base < tails:
        base += 1
    assert n ** base == tails
    assert tails <= kernel.CHUNK < tails * n


def test_roundtrip_failures_are_counted_per_chain(monkeypatch):
    """A chain that fails the round trip fails it for every chain that ends
    in it.  Every real scan reports 0 such failures, so clear the flag of k
    chains of the last table and count.  A chain's own round trip is decided
    from its tail, and the table's own chains were tested, as children of
    the table before it, before the flags were cleared; so each cleared
    chain counts for the n + n**2 + ... + n**(max_len - base) longer chains
    that end in it."""
    # n = 3: lengths 1 and 2 are tables (base = 2), and lengths 3 to 5 are
    # walked from the 9 chains of the length-2 table
    monkeypatch.setattr(kernel, "CHUNK", 10)
    max_len, max_entry, base, n = 5, 4, 2, 3
    cleared = [0, 4, 8]
    children = kernel._Tally.children
    roots = []

    def breaking(self, length, tail, *args):
        if length == base + 1:
            ok = tail[-1]
            roots.append(ok.size)
            assert ok[cleared].all()
            ok[cleared] = False
        return children(self, length, tail, *args)

    monkeypatch.setattr(kernel._Tally, "children", breaking)
    total, accepted, negdef, roundtrip = kernel.scan_chains(max_len, max_entry)
    assert roots == [n ** base]
    assert roundtrip == len(cleared) * sum(n ** j for j in range(1, max_len - base + 1))
    assert (total, accepted, negdef) == _reference(max_len, max_entry)[:3]


@pytest.mark.parametrize("max_len, max_entry, chunk", [(6, 8, None), (5, 7, 40), (1, 2, None)])
def test_each_tail_takes_one_round_trip_test(max_len, max_entry, chunk, monkeypatch):
    """The tally writes each tail's round-trip mask, and the table or the
    walk that builds the children reads it: the scan computes it once per
    tail, never again."""
    if chunk is not None:
        monkeypatch.setattr(kernel, "CHUNK", chunk)
    calls = {"children": 0, "roundtrips": 0}

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)
        return counted

    monkeypatch.setattr(kernel._Tally, "children", counting("children", kernel._Tally.children))
    monkeypatch.setattr(kernel, "_roundtrips", counting("roundtrips", kernel._roundtrips))
    assert kernel.scan_chains(max_len, max_entry) == _reference(max_len, max_entry)
    assert calls["roundtrips"] == calls["children"] > 0


def test_repeated_scans_give_identical_results(monkeypatch):
    """Each scan builds its own workspace and overwrites every entry it
    reads, so a scan that follows another in the same process, at other
    bounds and with blocks of other sizes, leaks nothing into it."""
    whole = kernel.scan_chains(6, 12)
    monkeypatch.setattr(kernel, "CHUNK", 40)
    first = kernel.scan_chains(6, 12), kernel.scan_chains(5, 7)
    second = kernel.scan_chains(6, 12), kernel.scan_chains(5, 7)
    assert first == second
    assert first == (whole, _reference(5, 7))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_repeated_scan_does_not_refault_the_heap():
    """A scan writes its walk into one workspace, so it does not free and
    fault back in a block's worth of heap for every block: a (6, 12) scan
    that follows another takes a few hundred minor faults, where freeing
    every block's arrays took over 2,000."""
    import resource  # Unix only

    kernel.scan_chains(6, 12)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    kernel.scan_chains(6, 12)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000


def test_scan_peak_memory_stays_small():
    kernel.scan_chains(2, 3)  # numpy imported before tracing starts
    tracemalloc.start()
    try:
        kernel.scan_chains(6, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _states(chains):
    """The kernel's state arrays (m, q, p, p_tail, ok) of the given chains,
    read off the product of their step matrices [[b, -1], [1, 0]], which is
    [[m, -p], [q, -p_tail]]."""
    rows = []
    for chain in chains:
        top, bottom = (1, 0), (0, 1)  # the empty product
        for b in reversed(chain):
            top, bottom = (b * top[0] - bottom[0], b * top[1] - bottom[1]), top
        (m, minus_p), (q, minus_p_tail) = top, bottom
        rows.append((m, q, -minus_p, -minus_p_tail))
    return tuple(np.array(c, dtype=np.int64) for c in zip(*rows)) + (
        np.ones(len(chains), dtype=bool),)


def _all_chains(max_len, max_entry):
    return [c for k in range(max_len + 1)
            for c in itertools.product(range(2, max_entry + 1), repeat=k)]


def _random_chains(seed, count, max_len, max_entry):
    rng = random.Random(seed)
    return [tuple(rng.randint(2, max_entry) for _ in range(rng.randint(0, max_len)))
            for _ in range(count)]


_TAILS = [
    pytest.param(_all_chains(4, 9), 9, id="every-tail-to-5-9"),
    pytest.param(_random_chains(1, 3000, 7, 12), 12, id="random-7-12"),
    pytest.param(_random_chains(2, 3000, 18, 3), 3, id="random-18-3"),
    pytest.param(_random_chains(3, 3000, 3, 300), 300, id="random-3-300"),
]


@pytest.mark.parametrize("tails, max_entry", _TAILS)
def test_candidate_digits_are_the_divisors_of_the_square(tails, max_entry):
    """Per tail, the candidates are exactly the digits b whose child value
    b*m' - q' divides (m' + 1)**2, with that value: the prefilter finds
    every tail that has one, and the candidates over those tails' states
    are exactly those digits."""
    state = _states(tails)
    tail = kernel._prefilter(np, state, kernel._Workspace(np, len(tails), 0))
    at, b, m = kernel._candidates(np, tuple(a[tail] for a in state[:3]), max_entry)
    found = {(int(i), int(d)): int(v) for i, d, v in zip(tail[at], b, m)}
    assert len(found) == at.size
    expected = {}
    for i in range(len(tails)):
        m_t, q_t = int(state[0][i]), int(state[1][i])
        for d in range(2, max_entry + 1):
            if (m_t + 1) ** 2 % (d * m_t - q_t) == 0:
                expected[i, d] = d * m_t - q_t
    assert found == expected
    assert expected


def test_states_satisfy_the_identity():
    """p*q = 1 (mod m), and q, p in [0, m), on every tail of the candidate
    test: the range in which the per-tail recognition applies, which
    _candidates assumes of every tail without checking it."""
    for tails in _TAILS:
        m, q, p = _states(tails.values[0])[:3]
        assert ((p * q) % m == 1 % m).all(), tails.id
        assert ((0 <= q) & (q < m) & (0 <= p) & (p < m)).all(), tails.id


def _det(chain):
    """The determinant of the chain's intersection matrix, by the oracle's
    Fraction elimination; the empty chain's is 1."""
    return determinant(chain_gram(chain)) if chain else 1


def test_determinant_steps_by_minus_prefix_times_suffix():
    """The identity the kernel's sign count rests on, checked on the
    oracle's determinants alone, entries below 2 included: raising entry i
    by 1 changes the determinant by -det(b1..b(i-1)) * det(b(i+1)..bl)."""
    rng = random.Random(5)
    for _ in range(400):
        chain = [rng.randint(-3, 6) for _ in range(rng.randint(1, 7))]
        i = rng.randrange(len(chain))
        raised = chain[:i] + [chain[i] + 1] + chain[i + 1:]
        assert _det(raised) - _det(chain) == -_det(chain[:i]) * _det(chain[i + 1:]), (chain, i)


@pytest.mark.parametrize("max_len, lo, max_entry", [
    (4, -1, 2), (4, 0, 3), (2, 1, 3), (5, 1, 3), (7, 1, 2), (5, 1, 1), (5, 2, 4)])
def test_sign_failures_equal_a_count_over_every_chain(max_len, lo, max_entry):
    """Entries from lo, not 2: with lo <= 1 a length fails ([-1] and [0]
    at length 1, [1, 1] with determinant 0 at length 2, the only failure of
    the box (2, 1, 3)), and the count runs chain by chain from there; with
    lo = 2 the lemma settles every length."""
    expected = sum((d >= 0) if length & 1 else (d <= 0)
                   for length in range(1, max_len + 1)
                   for d in map(_det, itertools.product(range(lo, max_entry + 1),
                                                        repeat=length)))
    assert kernel._sign_failures(np, max_len, lo, max_entry) == expected
    assert (expected > 0) == (lo < 2)


def test_sign_failures_of_a_scan_take_one_determinant_per_length():
    """With entries from 2 no length fails, so no array is built (the
    helper is given no numpy), whatever the bounds."""
    assert kernel._sign_failures(None, 10_000, 2, 10**6) == 0


def test_scan_reports_the_sign_count_over_its_bounds(monkeypatch):
    """Every real scan counts 0 sign failures, so stand in a count: the scan
    asks for its own bounds, entries from 2, and reports what it gets."""
    asked = []

    def counting(np, *bounds):
        asked.append(bounds)
        return 7

    monkeypatch.setattr(kernel, "_sign_failures", counting)
    result = kernel.scan_chains(5, 7)
    assert asked == [(5, 2, 7)]
    reference = _reference(5, 7)
    assert result == reference[:2] + (7,) + reference[3:]


@pytest.mark.parametrize("max_len, max_entry", [(16, 3), (30, 2)])
def test_narrow_boxes_agree_with_the_reference(max_len, max_entry):
    """Long chains of few digits: the per-length sign count and the walk's
    deep state sets against the per-chain reference."""
    assert kernel.scan_chains(max_len, max_entry) == _reference(max_len, max_entry)


def test_scan_counts_all_chains():
    total, _, _, _ = py_scan(4, 6)
    assert total == sum(5 ** k for k in range(1, 5))


def test_scan_never_fails_checks():
    total, accepted, negdef, roundtrip = py_scan(5, 8)
    assert negdef == 0
    assert roundtrip == 0
    assert {tuple(c) for c in accepted} == generate_class_T(5, 8)
    for chain in accepted:
        assert recognize_class_T(chain) is not None


def test_scan_rejects_bad_bounds():
    with pytest.raises(ValueError):
        kernel.scan_chains(0, 4)
    with pytest.raises(ValueError):
        kernel.scan_chains(3, 1)
    with pytest.raises(ValueError):
        kernel.scan_chains(9, 12)  # m reaches 4.9e9, and m**2 overflows int64


def test_selected_backend_exposed():
    assert kernel.BACKEND == "numpy"
