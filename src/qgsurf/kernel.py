"""Exhaustive scan over bounded linear chains, vectorised with numpy.

Visits every chain [b1..bl] with 1 <= l <= max_len and 2 <= bi <= max_entry
and, per chain, in 64-bit integers:

 * evaluates the minus continued fraction b1 - 1/(b2 - 1/(...)) as m/q,
 * tests the cyclic-quotient recognition m = d*n^2, q = d*n*a - 1,
 * checks that the determinant of the chain's intersection matrix has the
   sign (-1)**l (its leading principal minors are the determinants of the
   chain's prefixes, which are scanned chains themselves), so the matrix is
   negative definite,
 * re-expands m/q by ceiling division and compares digits (round trip).

Chains grow by prepending.  Putting b in front of a tail of value m'/q' gives
m = b*m' - q' and q = m', so the expansion's first digit is ceil(m/q) = b and
its remainder is (m', q').  A chain therefore round-trips iff that first step
holds and its tail round-trips.  The step's remainder b*q - m is q' whatever
b is, so the step holds iff 0 <= q' < m': the round trip is one test per
tail, shared by all its children, instead of an O(l) re-expansion per chain.
The children of one tail differ only in b, so m and the determinant step
from digit b to b + 1 by addition: m + m' and det - det'.

Chains of one length l are indexed by sum((bj - 2) * n**(l - j)),
n = max_entry - 1, so digits decode from the index and index order is
lexicographic order.  The scan works in blocks of at most CHUNK chains:

 * every length with at most CHUNK chains is built whole, as one table;
 * the next length, base + 1, is cut into slabs: contiguous index ranges of
   equal size, each built from the last table by prepending one digit per
   chain;
 * each slab is the root of a depth-first walk that prepends one head digit
   at a time to a whole block, so every longer chain is (head, slab chain).

So every block holds between CHUNK/2 and CHUNK chains, except in a length
that has fewer chains than that in total, and no array the scan builds is
longer than CHUNK, whatever the bounds.

``qgsurf._kernel_py`` is the independent per-chain reference; both return
identical results for equal bounds.
"""

BACKEND = "numpy"

CHUNK = 1 << 14
"""Most chains in one block, and so in any array the scan builds.

It is sized for cache: the dozen or so 128 KB int64 arrays that a block of
2**14 chains keeps alive stay in one core's L2, so each elementwise pass of
the scan reads from cache rather than from memory.  It bounds memory too:
besides the table, at most one block per chain length is alive, so a scan
peaks at a few MB whatever the bounds.  On a 2-vCPU Xeon with 2 MB of L2 per
core, 2**14 scanned the bounds grid fastest of 2**13 to 2**16.
"""

_INT64_MAX = 2**63 - 1


def _max_numerator(max_len: int, max_entry: int) -> int:
    """Largest m within the bounds: the continuant of [max_entry] * max_len.

    A continuant is increasing in every entry >= 2 and in the length, so every
    m, q and determinant the scan meets is at most this in absolute value.
    """
    prev, cur = 1, max_entry
    for _ in range(max_len - 1):
        prev, cur = cur, max_entry * cur - prev
    return cur


def _roundtrips(tail):
    """Whether each chain of tail round-trips once any digit is put in front.

    A state is (m, q, det, det_tail, ok): the value m/q, the determinant of
    the intersection matrix and that of the chain without its first entry,
    and whether the chain round-trips.  With b in front of a tail of value
    m'/q', the first step's remainder b*q - m = b*m' - (b*m' - q') is q'
    whatever b is, so the step holds iff 0 <= q' < m'.
    """
    m_t, q_t, _, _, ok_t = tail
    return ok_t & (m_t > 0) & (q_t >= 0) & (q_t < m_t)


def _block(np, table, lo, hi):
    """Chains lo..hi-1, by index, of the length one longer than table's.

    Index i of that length puts the digit 2 + i // S in front of the chain
    at index i % S of the table, S = len(table), so b is one digit per chain.
    """
    size = table[0].size
    index = np.arange(lo, hi, dtype=np.int64)
    digit = index // size
    at = index - digit * size
    m_t, q_t, det_t, det_tt, _ = tail = tuple(a[at] for a in table)
    b = digit + 2
    return b * m_t - q_t, m_t, -b * det_t - det_tt, det_t, _roundtrips(tail)


class _Tally:
    """Per-chain checks over one array of chains, accumulated over the scan."""

    def __init__(self, np):
        self.np = np
        self.total = 0
        self.negdef = 0
        self.roundtrip = 0
        self.accepted = []

    def check(self, length, state, chain_at, square=None, broken=None):
        """Count and test every chain of state.  ``square`` is (q + 1)**2 and
        ``broken`` the number of chains that fail the round trip; the caller
        may compute both once for all children of one tail."""
        np = self.np
        m, q, det, _, ok = state
        self.total += m.size
        # a negative definite matrix of order l has determinant of sign (-1)**l
        self.negdef += int(np.count_nonzero(det >= 0 if length & 1 else det <= 0))
        if broken is None:
            broken = m.size - int(np.count_nonzero(ok))
        self.roundtrip += broken
        # recognition: g = gcd(m, q+1), n = m/g, a = (q+1)/g, d = g/n.  Every
        # accepted chain has m = g*n dividing g**2, which divides (q+1)**2, so
        # the exact gcd runs only on chains passing that cheaper test.
        if square is None:
            square = (q + 1) * (q + 1)
        cand = np.flatnonzero(square % m == 0)
        m, qq = m[cand], q[cand] + 1
        g = np.gcd(m, qq)
        n = m // g
        hit = (n >= 2) & (qq // g < n) & (g % n == 0)
        self.accepted.extend(chain_at(int(i)) for i in cand[hit])


def _digits(index: int, length: int, n: int) -> tuple:
    """The chain of the given length stored at the given index."""
    out = []
    for _ in range(length):
        index, digit = divmod(index, n)
        out.append(digit + 2)
    return tuple(reversed(out))


def scan_chains(max_len: int, max_entry: int):
    """Exhaustive bounded chain scan.

    Returns (total, class_t, negdef_failures, roundtrip_failures) where
    class_t is the list of accepted chains in lexicographic order, which is
    the order a depth-first walk discovers them in.  All four are plain
    Python values.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if max_entry < 2:
        raise ValueError("max_entry must be >= 2")
    # b*m and (q+1)**2 must stay exact in int64; both are at most m_max**2
    if _max_numerator(max_len, max_entry) ** 2 > _INT64_MAX:
        raise ValueError("bounds overflow the 64-bit kernel")

    import numpy as np  # deferred: importing numpy costs more than qgsurf

    n = max_entry - 1
    tally = _Tally(np)
    one = np.ones(1, dtype=np.int64)
    zero = np.zeros(1, dtype=np.int64)
    table = (one, zero, one, zero, np.ones(1, dtype=bool))  # the empty chain

    base = 0  # longest length built whole
    while base < max_len and n ** (base + 1) <= CHUNK:
        table = _block(np, table, 0, n ** (base + 1))
        base += 1
        tally.check(base, table, lambda i, k=base: _digits(i, k, n))

    def extend(tail, lo, head):
        # every child of tail has q = m_tail and the same round trip, so
        # both are tested once here; m and det step from digit b to b + 1
        # by adding m_tail and subtracting det_tail
        m_t, q_t, det_t, det_tt, _ = tail
        ok = _roundtrips(tail)
        broken = ok.size - int(np.count_nonzero(ok))
        square = (m_t + 1) * (m_t + 1)
        length = base + 2 + len(head)
        m, det = m_t - q_t, -det_t - det_tt  # the digit 1
        for b in range(2, max_entry + 1):
            m, det = m + m_t, det - det_t
            child = (m, m_t, det, det_t, ok)
            chain = (b,) + head
            tally.check(length, child,
                        lambda i: chain + _digits(lo + i, base + 1, n), square, broken)
            if length < max_len:
                extend(child, lo, chain)

    if base < max_len:
        # length base + 1 in slabs of equal size, each the root of the
        # chains that extend it by heads of leading digits
        size = n ** (base + 1)
        slabs = -(-size // CHUNK)
        for k in range(slabs):
            lo, hi = size * k // slabs, size * (k + 1) // slabs
            slab = _block(np, table, lo, hi)
            tally.check(base + 1, slab, lambda i, lo=lo: _digits(lo + i, base + 1, n))
            if base + 1 < max_len:
                extend(slab, lo, ())

    return tally.total, sorted(tally.accepted), tally.negdef, tally.roundtrip
