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
m = b*m' - q' and q = m'.  A chain also carries p, the continuant of the
chain without its last entry, and p_tail, that of the chain without both
ends, which step the same way: p = b*p' - p_tail' and p_tail = p'.  The
step matrices [[b, -1], [1, 0]] are unimodular and their product is
[[m, -p], [q, -p_tail]], so for any integer entries

    p*q - m*p_tail = 1,   so   p*q = 1 (mod m).

The children of one tail differ only in b, so each of the three per-chain
tests is decided once per tail, for all its children at once:

 * round trip: the expansion's first digit is ceil(m/q) = b and its
   remainder is (m', q'), so a chain round-trips iff 0 <= q' < m' and its
   tail round-trips, whatever b is;
 * definiteness: the determinant -b*det' - det'' is affine in b, so if the
   digits 2 and max_entry both give it the sign (-1)**l, every digit between
   them does too; only a tail where an end digit fails is counted child by
   child;
 * recognition prefilter: every accepted chain has m dividing (q + 1)**2
   (see ``_recognized``), and here (q + 1)**2 = (m' + 1)**2.  If m' > 0 and
   q', p' lie in [0, m'), then m >= m' + 1, so the cofactor
   k = (m' + 1)**2 / m is at most m' + 1, and k*m = 1 with m = -q' and
   p'*q' = 1 (mod m') give k = -p' (mod m').  So k is m' - p' or, only
   where that is 1, m' + 1: one modulo per tail finds its at most two
   candidate digits, and only they take the exact gcd recognition.  A tail
   outside that range is tested child by child, as is every chain of a
   table or slab below.

Chains of one length l are indexed by sum((bj - 2) * n**(l - j)),
n = max_entry - 1, so digits decode from the index and index order is
lexicographic order.  The scan works in blocks of at most CHUNK chains:

 * every length with at most CHUNK chains is built whole, as one table;
 * the next length, base + 1, is cut into slabs: contiguous index ranges of
   equal size, each built from the last table by prepending one digit per
   chain;
 * each slab is the root of a depth-first walk that prepends one head digit
   at a time to a whole block, so every longer chain is (head, slab chain).

The chains of tables and slabs are tested one by one; every longer length is
tested once per tail, on the block its chains extend, and only the lengths
below max_len are built.  So every block holds between CHUNK/2 and CHUNK
chains or tails, except in a length that has fewer chains than that in
total, and no array the scan builds is longer than CHUNK, whatever the
bounds.

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
    m, p, q and determinant the scan meets is at most this in absolute value.
    """
    prev, cur = 1, max_entry
    for _ in range(max_len - 1):
        prev, cur = cur, max_entry * cur - prev
    return cur


def _roundtrips(tail):
    """Whether each chain of tail round-trips once any digit is put in front.

    A state is (m, q, p, p_tail, det, det_tail, ok): the value m/q, p, the
    determinant of the intersection matrix, p and the determinant of the
    chain without its first entry, and whether the chain round-trips.  With
    b in front of a tail of value m'/q', the first step's remainder
    b*q - m = b*m' - (b*m' - q') is q' whatever b is, so the step holds iff
    0 <= q' < m'.
    """
    m_t, q_t = tail[:2]
    return tail[-1] & (m_t > 0) & (q_t >= 0) & (q_t < m_t)


def _block(np, table, lo, hi):
    """Chains lo..hi-1, by index, of the length one longer than table's.

    Index i of that length puts the digit 2 + i // S in front of the chain
    at index i % S of the table, S = len(table).  So the block is a run of
    whole digit rows, each the table with one digit in front, between two
    partial rows, each a slice of the table with one digit in front; each
    piece is written into the block as a (digits, tails) matrix.
    """
    size = table[0].size
    first, start = divmod(lo, size)
    last, stop = divmod(hi, size)
    if first == last:
        pieces = [(first, first + 1, start, stop)]
    else:
        pieces = [(first, first + 1, start, size)] if start else []
        if first + (start > 0) < last:
            pieces.append((first + (start > 0), last, 0, size))
        if stop:
            pieces.append((last, last + 1, 0, stop))
    block = tuple(np.empty(hi - lo, dtype=a.dtype) for a in table)
    done = 0
    for d, e, i, j in pieces:
        tail = tuple(a[i:j] for a in table)
        m_t, q_t, p_t, p_tt, det_t, det_tt, _ = tail
        b = np.arange(d + 2, e + 2)[:, None]
        m, q, p, p_tail, det, det_tail, ok = (
            a[done:done + (e - d) * (j - i)].reshape(e - d, j - i) for a in block)
        np.multiply(b, m_t, out=m)
        m -= q_t
        np.multiply(b, p_t, out=p)
        p -= p_tt
        np.multiply(-b, det_t, out=det)
        det -= det_tt
        q[:], p_tail[:], det_tail[:], ok[:] = m_t, p_t, det_t, _roundtrips(tail)
        done += m.size
    return block


def _indefinite(length, det):
    """Whether each determinant breaks the sign (-1)**length that a negative
    definite matrix of that order has."""
    return det >= 0 if length & 1 else det <= 0


def _recognized(np, m, qq):
    """Whether each m/(qq - 1) is d*n^2/(d*n*a - 1) with n >= 2, 0 < a < n.

    g = gcd(m, qq), n = m/g, a = qq/g, d = g/n.  Every accepted value has
    m = g*n dividing g**2, which divides qq**2.
    """
    g = np.gcd(m, qq)
    n = m // g
    return (n >= 2) & (qq // g < n) & (g % n == 0)


def _negdef_failures(np, length, det_t, det_tt, max_entry) -> int:
    """How many children of the given length fail the sign test, over every
    digit 2..max_entry put in front of each tail (det_t, det_tt).

    The child's determinant -b*det_t - det_tt is affine in b, so when both
    end digits pass, all digits between them pass too.
    """
    first = -2 * det_t - det_tt
    last = first - (max_entry - 2) * det_t
    doubt = _indefinite(length, first) | _indefinite(length, last)
    if not doubt.any():
        return 0
    doubt = np.flatnonzero(doubt)
    det_t, det_tt = det_t[doubt], det_tt[doubt]
    return sum(int(np.count_nonzero(_indefinite(length, -b * det_t - det_tt)))
               for b in range(2, max_entry + 1))


def _candidates(np, tail, max_entry):
    """The children of tail whose m divides (q + 1)**2 = (m' + 1)**2.

    Returns (at, b, m, rest): the child with digit b[j] of tail chain at[j]
    has value m[j]/m'; rest indexes the tails outside the range the
    cofactor identity needs (m' > 0 and q', p' in [0, m')), whose children
    the caller tests one by one.
    """
    m_t, q_t, p_t = tail[:3]
    rest = np.flatnonzero((np.maximum(q_t, p_t) >= m_t) | (np.minimum(q_t, p_t) < 0))
    square = m_t + 1
    square *= square
    k = m_t - p_t
    k[rest] = 1  # any nonzero divisor: these tails are dropped below
    hit = square % k == 0
    hit[rest] = False
    at = np.flatnonzero(hit)
    k = k[at]
    # the second cofactor 2*m' - p' is at most m' + 1 only where m' - p' == 1
    two = at[k == 1]
    at = np.concatenate((at, two))
    m = square[at] // np.concatenate((k, m_t[two] + 1))
    # m = -q' (mod m'), so b is exact; and b >= 2: a cofactor k <= m' gives
    # m > m' + 1, and p' = m' - 1 forces q' = m' - 1 (p'*q' = 1), so the
    # cofactor m' + 1 gives b = 2
    b = (m + q_t[at]) // m_t[at]
    keep = b <= max_entry
    return at[keep], b[keep], m[keep], rest


class _Tally:
    """The scan's tests over its arrays of chains, accumulated."""

    def __init__(self, np, max_entry):
        self.np = np
        self.max_entry = max_entry
        self.total = 0
        self.negdef = 0
        self.roundtrip = 0
        self.accepted = []

    def _recognize(self, m, qq, chain_at):
        """Accept each chain of value m/(qq - 1) that is class T; chain_at(i)
        is the chain at position i."""
        np = self.np
        cand = np.flatnonzero((qq * qq) % m == 0)
        hit = _recognized(np, m[cand], qq[cand])
        self.accepted.extend(chain_at(int(i)) for i in cand[hit])

    def check(self, length, state, chain_at):
        """Count and test every chain of state, one by one."""
        np = self.np
        m, q, _, _, det, _, ok = state
        self.total += m.size
        self.negdef += int(np.count_nonzero(_indefinite(length, det)))
        self.roundtrip += m.size - int(np.count_nonzero(ok))
        self._recognize(m, q + 1, chain_at)

    def children(self, length, tail, chain_at):
        """Count and test the chains of the given length that put one digit
        in front of a chain of tail, once per tail; chain_at(i, b) is the
        child with digit b of tail chain i."""
        np, top = self.np, self.max_entry
        m_t, q_t, _, _, det_t, det_tt, _ = tail
        size = m_t.size
        self.total += (top - 1) * size
        self.roundtrip += (top - 1) * (size - int(np.count_nonzero(_roundtrips(tail))))
        self.negdef += _negdef_failures(np, length, det_t, det_tt, top)
        at, b, m, rest = _candidates(np, tail, top)
        hit = _recognized(np, m, m_t[at] + 1)
        self.accepted.extend(chain_at(int(i), int(d)) for i, d in zip(at[hit], b[hit]))
        if rest.size:
            m_t, q_t = m_t[rest], q_t[rest]
            for d in range(2, top + 1):
                self._recognize(d * m_t - q_t, m_t + 1,
                                lambda i, d=d: chain_at(int(rest[i]), d))


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
    tally = _Tally(np, max_entry)
    one = np.ones(1, dtype=np.int64)
    zero = np.zeros(1, dtype=np.int64)
    # the empty chain: its step matrix product is the identity
    table = (one, zero, zero, -one, one, zero, np.ones(1, dtype=bool))

    base = 0  # longest length built whole
    while base < max_len and n ** (base + 1) <= CHUNK:
        table = _block(np, table, 0, n ** (base + 1))
        base += 1
        tally.check(base, table, lambda i, k=base: _digits(i, k, n))

    def extend(tail, lo, head):
        # every child of tail is tested once per tail; only the lengths below
        # max_len are built, since only they are tails themselves.  m, p and
        # det step from digit b to b + 1 by adding m_tail and p_tail and
        # subtracting det_tail
        length = base + 2 + len(head)
        tally.children(length, tail,
                       lambda i, b: (b,) + head + _digits(lo + i, base + 1, n))
        if length == max_len:
            return
        m_t, q_t, p_t, p_tt, det_t, det_tt, _ = tail
        ok = _roundtrips(tail)
        m, p, det = m_t - q_t, p_t - p_tt, -det_t - det_tt  # the digit 1
        for b in range(2, max_entry + 1):
            m, p, det = m + m_t, p + p_t, det - det_t
            extend((m, m_t, p, p_t, det, det_t, ok), lo, (b,) + head)

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
