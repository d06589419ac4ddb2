"""Parity between the numpy scan kernel and its pure-Python reference, and
the size of the blocks the kernel works in."""

import functools
import tracemalloc

import pytest

from qgsurf import kernel
from qgsurf._kernel_py import scan_chains as py_scan
from qgsurf.wahl import generate_class_T, recognize_class_T


@functools.lru_cache(maxsize=None)
def _reference(max_len, max_entry):
    return py_scan(max_len, max_entry)


def _chunks(n):
    """CHUNK values that cut the scan's levels at awkward places, for digits
    in n values: one chain per block, about one digit's worth of chains, one
    short of two digits' worth, and n*n + 1, which is no multiple of the
    n*n chains of the table it leads to."""
    return sorted({1, n - 1, n, n + 1, n * n - 1, n * n + 1})


@pytest.mark.parametrize("max_len, max_entry, chunk", [
    pytest.param(1, 2, None, id="1-2"),
    pytest.param(3, 5, None, id="3-5"),
    pytest.param(5, 7, None, id="5-7"),
    pytest.param(6, 4, None, id="6-4"),
    # 40 holds 6**2 chains: lengths 3 to 5 are built in 36-chain pieces
    pytest.param(5, 7, 40, id="5-7-chunk40"),
] + [
    # blocks that cut a length in the middle of a digit
    pytest.param(max_len, max_entry, chunk, id=f"{max_len}-{max_entry}-chunk{chunk}")
    for max_len, max_entry in [(5, 7), (4, 3), (3, 40)]
    for chunk in _chunks(max_entry - 1)
])
def test_backends_agree(max_len, max_entry, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(kernel, "CHUNK", chunk)
    assert kernel.scan_chains(max_len, max_entry) == _reference(max_len, max_entry)


def _block_sizes(monkeypatch, max_len, max_entry):
    """{length: [chains in each block checked at that length]} of one scan."""
    sizes = {}
    check = kernel._Tally.check

    def recording(self, length, state, *args):
        sizes.setdefault(length, []).append(state[0].size)
        return check(self, length, state, *args)

    monkeypatch.setattr(kernel._Tally, "check", recording)
    kernel.scan_chains(max_len, max_entry)
    return sizes


@pytest.mark.parametrize("max_len, max_entry", [(6, 12), (3, 300), (12, 4)])
def test_blocks_hold_between_half_and_all_of_chunk(max_len, max_entry, monkeypatch):
    sizes = _block_sizes(monkeypatch, max_len, max_entry)
    n = max_entry - 1
    assert sorted(sizes) == list(range(1, max_len + 1))
    for length, blocks in sizes.items():
        assert sum(blocks) == n ** length
        assert max(blocks) <= kernel.CHUNK, length
        if n ** length > kernel.CHUNK:
            assert min(blocks) > kernel.CHUNK // 2, length


def test_roundtrip_failures_are_counted_per_chain(monkeypatch):
    """A chain that fails the round trip fails it for every chain that ends
    in it.  Every real scan reports 0 such failures, so clear the flag of k
    chains of one slab and count: each is itself and the tail of
    n + n**2 + ... + n**(max_len - base - 1) longer chains."""
    # n = 3: lengths 1 and 2 are tables (base = 2), length 3 is cut into
    # three slabs of 9 chains, and lengths 4 and 5 lie below each slab
    monkeypatch.setattr(kernel, "CHUNK", 10)
    max_len, max_entry, base, n = 5, 4, 2, 3
    cleared = [0, 4, 8]
    block = kernel._block
    slabs = []

    def breaking(np, table, lo, hi):
        state = block(np, table, lo, hi)
        if table[0].size == n ** base:
            slabs.append(lo)
            if len(slabs) == 2:
                ok = state[-1]
                assert ok[cleared].all()
                ok[cleared] = False
        return state

    monkeypatch.setattr(kernel, "_block", breaking)
    total, accepted, negdef, roundtrip = kernel.scan_chains(max_len, max_entry)
    assert slabs == [0, 9, 18]
    assert roundtrip == len(cleared) * sum(n ** j for j in range(max_len - base))
    assert (total, accepted, negdef) == _reference(max_len, max_entry)[:3]


def test_scan_peak_memory_stays_small():
    kernel.scan_chains(2, 3)  # numpy imported before tracing starts
    tracemalloc.start()
    try:
        kernel.scan_chains(6, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
