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

Every chain is tested once, as a child of its tail: the children of one
tail differ only in b, so each of the three per-chain tests is decided once
per tail, for all its children at once:

 * round trip: the expansion's first digit is ceil(m/q) = b and its
   remainder is (m', q'), so a chain round-trips iff 0 <= q' < m' and its
   tail round-trips, whatever b is;
 * definiteness: the determinant -b*det' - det'' is affine in b, so if the
   digits 2 and max_entry both give it the sign (-1)**l, every digit between
   them does too; only a tail where an end digit fails is counted digit by
   digit;
 * recognition prefilter: every accepted chain has m dividing (q + 1)**2
   (see ``_recognized``), and here (q + 1)**2 = (m' + 1)**2.  With entries
   >= 2 continuants strictly increase, so every tail has m' > 0 and q', p'
   in [0, m') (the empty chain has m' = 1, q' = p' = 0).  Then m >= m' + 1,
   so the cofactor k = (m' + 1)**2 / m is at most m' + 1, and k*m = 1 with
   m = -q' and p'*q' = 1 (mod m') give k = -p' (mod m').  So k is m' - p'
   or, only where that is 1, m' + 1: one modulo per tail finds its at most
   two candidate digits, and only they take the exact gcd recognition.

Chains of one length l are indexed by sum((bj - 2) * n**(l - j)),
n = max_entry - 1, so digits decode from the index and index order is
lexicographic order.  The scan builds tables, then walks:

 * every length up to base, the longest below max_len with at most CHUNK
   chains, is built whole, as one table: each digit's row of a table is the
   table before it with that digit in front, and each length up to base is
   tested as the children of the table before it, the empty chain being the
   first tail;
 * the last table is the root of a depth-first walk that prepends one head
   digit at a time to the whole table, so every longer chain is (head,
   table chain), and is tested on the state it extends.  Length base + 1
   and every longer length below max_len exist only as one state set per
   depth, which the digits of that depth step in place.

Only the lengths below max_len are built, since only they are tails.  So
every length tested in more than one block is tested in blocks of exactly
n**base tails, n**base <= CHUNK < n**(base + 1), and no array the scan
builds is longer than CHUNK, whatever the bounds.  That costs time where
n**base falls far below CHUNK, since the walk then steps many small blocks.
Measured against a walk that started from slabs of length base + 1 holding
CHUNK/2 to CHUNK tails (medians of in-process scans in alternating order,
two rounds, 2-vCPU Xeon, Python 3.11, numpy 2.4): at n = 11, which every
scan the project runs but (6, 7) has, (6, 12) went from 6.1-6.5 ms to
4.2-4.5 ms and (8, 12) stayed at 0.35-0.40 s; (6, 7), (7, 12) and (12, 4)
moved by at most 7 % either way; (8, 8), (5, 30) and (3, 300), whose
blocks hold 2401, 841 and 299 tails, went from 21-23 to 38-43 ms, 13-14 to
63-69 ms and 3 to 17-18 ms.

Each scan allocates one workspace (``_Workspace``), n**base entries long,
and writes the walk's arrays into it, with ``out=`` or in place: the
scratch arrays of the per-tail tests and one state set per depth of the
walk.  Besides the workspace, a scan allocates only its tables and per
block the arrays sized by the block's hits (the indices that
``flatnonzero`` finds, the candidate digits and the recognized chains).  A
block of 2**14 int64 entries is just under 128 KiB, below glibc's default
mmap threshold, so arrays freed after every block would leave the top of
the heap free for glibc to trim and fault back in on the next block.  With
the workspace a (6, 12) scan that follows another takes a few hundred minor
page faults, not over 2,000.  The workspace is local to the call, so scans
stay reentrant.

``qgsurf._kernel_py`` is the independent per-chain reference; both return
identical results for equal bounds.
"""

BACKEND = "numpy"

CHUNK = 1 << 14
"""Most chains in one table, and so in any array the scan builds.

It picks base, the longest length built whole, and with it the size of
every block of the walk: n**base tails, n = max_entry - 1, with
n**base <= CHUNK < n**(base + 1).  A block of 2**14 chains keeps the dozen
or so 128 KB int64 arrays it touches in one core's L2, so each elementwise
pass of the scan reads from cache rather than from memory.  It bounds
memory too: besides the tables, the workspace holds one state set per depth
of the walk, so a scan peaks at a few MB whatever the bounds.  On a 2-vCPU
Xeon with 2 MB of L2 per core (Python 3.11, numpy 2.4; medians of 40 scans
at (6, 12) and of 3 at (8, 12), two rounds in alternating order), 2**14,
2**15 and 2**16 all give base 4 at n = 11 and scanned alike, in 4.4-4.5 ms
and 0.32-0.37 s; 2**13 gives base 3, blocks of 1331 tails, and took
12.7 ms and 1.2 s.
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


def _roundtrips(np, tail, out, scratch):
    """Whether each chain of tail round-trips once any digit is put in front,
    written into out; scratch is a second bool array of the tail's size.

    A state is (m, q, p, p_tail, det, det_tail, ok): the value m/q, p, the
    determinant of the intersection matrix, p and the determinant of the
    chain without its first entry, and whether the chain round-trips.  With
    b in front of a tail of value m'/q', the first step's remainder
    b*q - m = b*m' - (b*m' - q') is q' whatever b is, so the step holds iff
    0 <= q' < m'.
    """
    m_t, q_t = tail[:2]
    np.greater(m_t, 0, out=out)
    out &= tail[-1]
    out &= np.greater_equal(q_t, 0, out=scratch)
    out &= np.less(q_t, m_t, out=scratch)
    return out


def _table(np, tail, ok, max_entry):
    """The chains one longer than tail's, as a new table; ok is tail's
    round-trip mask, as ``_Tally.children`` wrote it.

    Index i of that length puts the digit 2 + i // S in front of the chain
    at index i % S of tail, S = len(tail).  So each digit's row is tail with
    that digit in front, and the rows are one broadcast per state array.
    """
    m_t, q_t, p_t, p_tt, det_t, det_tt, _ = tail
    n = max_entry - 1
    b = np.arange(2, max_entry + 1, dtype=np.int64)[:, None]
    return ((b * m_t - q_t).ravel(), np.tile(m_t, n), (b * p_t - p_tt).ravel(),
            np.tile(p_t, n), (-b * det_t - det_tt).ravel(), np.tile(det_t, n),
            np.tile(ok, n))


def _indefinite(np, length, det, out):
    """Whether each determinant breaks the sign (-1)**length that a negative
    definite matrix of that order has, written into out."""
    return (np.greater_equal if length & 1 else np.less_equal)(det, 0, out=out)


def _recognized(np, m, qq):
    """Whether each m/(qq - 1) is d*n^2/(d*n*a - 1) with n >= 2, 0 < a < n.

    g = gcd(m, qq), n = m/g, a = qq/g, d = g/n.  Every accepted value has
    m = g*n dividing g**2, which divides qq**2.
    """
    g = np.gcd(m, qq)
    n = m // g
    return (n >= 2) & (qq // g < n) & (g % n == 0)


def _negdef_failures(np, length, det_t, det_tt, max_entry, work) -> int:
    """How many children of the given length fail the sign test, over every
    digit 2..max_entry put in front of each tail (det_t, det_tt).

    The child's determinant -b*det_t - det_tt is affine in b, so when both
    end digits pass, all digits between them pass too.
    """
    size = det_t.size
    first, last = (a[:size] for a in work.ints[:2])
    doubt, scratch = (a[:size] for a in work.masks)
    np.multiply(det_t, -2, out=first)
    first -= det_tt
    np.multiply(det_t, max_entry - 2, out=last)
    np.subtract(first, last, out=last)
    _indefinite(np, length, first, doubt)
    doubt |= _indefinite(np, length, last, scratch)
    if not doubt.any():
        return 0
    doubt = np.flatnonzero(doubt)
    det_t, det_tt = det_t[doubt], det_tt[doubt]
    child, fails = first[:doubt.size], scratch[:doubt.size]
    count = 0
    for b in range(2, max_entry + 1):
        np.multiply(det_t, -b, out=child)
        child -= det_tt
        count += int(np.count_nonzero(_indefinite(np, length, child, fails)))
    return count


def _candidates(np, tail, max_entry, work):
    """The children of tail whose m divides (q + 1)**2 = (m' + 1)**2.

    Returns (at, b, m): the child with digit b[j] of tail chain at[j] has
    value m[j]/m'.  Every tail is in the range the cofactor identity needs
    (m' > 0 and q', p' in [0, m')), so each cofactor m' - p' is positive.
    """
    m_t, q_t, p_t = tail[:3]
    size = m_t.size
    square, k, rest = (a[:size] for a in work.ints)
    np.add(m_t, 1, out=square)
    square *= square
    np.subtract(m_t, p_t, out=k)
    np.remainder(square, k, out=rest)
    at = np.flatnonzero(np.equal(rest, 0, out=work.masks[0][:size]))
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
    return at[keep], b[keep], m[keep]


class _Workspace:
    """Every array of a scan's walk, allocated once.

    Three int64 and two bool scratch arrays for the per-tail tests, one
    state set (m, p, det, ok) for each depth of the walk below the last
    table, and the round-trip mask of the last length, which is no tail and
    so has no state set; each holds width entries, and a shorter tail uses a
    prefix.
    """

    def __init__(self, np, width, depths):
        def arrays(*dtypes):
            return tuple(np.empty(width, dtype=t) for t in dtypes)

        i64 = np.int64
        self.ints = arrays(i64, i64, i64)
        self.masks = arrays(bool, bool)
        self.states = [arrays(i64, i64, i64, bool) for _ in range(depths)]
        self.last_ok = np.empty(width, dtype=bool)


class _Tally:
    """The scan's tests over its arrays of chains, accumulated."""

    def __init__(self, np, max_entry, work):
        self.np = np
        self.max_entry = max_entry
        self.work = work
        self.total = 0
        self.negdef = 0
        self.roundtrip = 0
        self.accepted = []

    def children(self, length, tail, ok, chain_at):
        """Count and test the chains of the given length that put one digit
        in front of a chain of tail, once per tail; chain_at(i, b) is the
        child with digit b of tail chain i.  The children's round-trip mask,
        one entry per tail chain, is written into ok for the caller to build
        them with."""
        np, top, work = self.np, self.max_entry, self.work
        m_t, _, _, _, det_t, det_tt, _ = tail
        size = m_t.size
        self.total += (top - 1) * size
        _roundtrips(np, tail, ok, work.masks[0][:size])
        self.roundtrip += (top - 1) * (size - int(np.count_nonzero(ok)))
        self.negdef += _negdef_failures(np, length, det_t, det_tt, top, work)
        at, b, m = _candidates(np, tail, top, work)
        hit = _recognized(np, m, m_t[at] + 1)
        self.accepted.extend(chain_at(int(i), int(d)) for i, d in zip(at[hit], b[hit]))


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
    base = 0  # longest length built whole, and the root of the walk
    while base + 1 < max_len and n ** (base + 1) <= CHUNK:
        base += 1
    work = _Workspace(np, n ** base, max_len - base - 1)
    tally = _Tally(np, max_entry, work)
    one = np.ones(1, dtype=np.int64)
    zero = np.zeros(1, dtype=np.int64)
    # the empty chain: its step matrix product is the identity
    table = (one, zero, zero, -one, one, zero, np.ones(1, dtype=bool))

    for length in range(base):
        # the chains one longer than the table are its children
        ok = np.empty(table[0].size, dtype=bool)
        tally.children(length + 1, table, ok, lambda i, b: (b,) + _digits(i, length, n))
        table = _table(np, table, ok, max_entry)

    def extend(tail, head):
        # every child of tail is tested once per tail; only the lengths below
        # max_len are built, since only they are tails themselves.  The
        # children are built in the state set of this depth, whose ok the
        # tally writes (at max_len, which has no state set, it writes
        # last_ok), and m, p and det step from digit b to b + 1 in place by
        # adding m_tail and p_tail and subtracting det_tail
        length = base + 1 + len(head)
        m_t, q_t, p_t, p_tt, det_t, det_tt, _ = tail
        if length == max_len:
            ok = work.last_ok[:m_t.size]
        else:
            m, p, det, ok = (a[:m_t.size] for a in work.states[len(head)])
        tally.children(length, tail, ok, lambda i, b: (b,) + head + _digits(i, base, n))
        if length == max_len:
            return
        # the digit 1
        np.subtract(m_t, q_t, out=m)
        np.subtract(p_t, p_tt, out=p)
        np.negative(det_t, out=det)
        det -= det_tt
        for b in range(2, max_entry + 1):
            m += m_t
            p += p_t
            det -= det_t
            extend((m, m_t, p, p_t, det, det_t, ok), (b,) + head)

    extend(table, ())
    return tally.total, sorted(tally.accepted), tally.negdef, tally.roundtrip
