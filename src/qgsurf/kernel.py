"""Exhaustive scan over bounded linear chains, vectorised with numpy.

Visits every chain [b1..bl] with 1 <= l <= max_len and 2 <= bi <= max_entry
and, per chain, in 64-bit integers:

 * evaluates the minus continued fraction b1 - 1/(b2 - 1/(...)) as m/q,
 * tests the cyclic-quotient recognition m = d*n^2, q = d*n*a - 1,
 * re-expands m/q by ceiling division and compares digits (round trip).

It also counts the chains whose intersection matrix (diagonal -bi, 1 beside
it) has a determinant without the sign (-1)**l.  The leading principal
minors of that matrix are the determinants of the chain's prefixes, which
are scanned chains themselves, so by Sylvester's criterion no failure means
every matrix is negative definite.  That count needs no chain's
determinant but one per length (``_sign_failures``), by this lemma: while
no shorter length fails, length l fails nowhere iff det([lo]*l), lo the
least entry, has the sign (-1)**l.  Proof:

 1. expanding the tridiagonal determinant along row i makes it affine in
    bi, with d det/d bi = -det(b1..b(i-1)) * det(b(i+1)..bl), the empty
    chain's determinant being 1;
 2. both factors are shorter chains within the bounds, so they have the
    signs (-1)**(i-1) and (-1)**(l-i), and (-1)**l * det grows with every
    entry;
 3. so its least value over the bounds is at [lo]*l, a chain within them.

Chains grow by prepending.  A chain's state is (m, q, p, p_tail, ok): its
value m/q, p, the continuant of the chain without its last entry, p_tail,
that of the chain without both ends, and whether it round-trips.  Putting b
in front of a tail of value m'/q' gives m = b*m' - q' and q = m', and p
steps the same way: p = b*p' - p_tail' and p_tail = p'.  The step matrices
[[b, -1], [1, 0]] are unimodular and their product is [[m, -p], [q, -p_tail]],
so for any integer entries

    p*q - m*p_tail = 1,   so   p*q = 1 (mod m).

Every chain is tested once, as a child of its tail: the children of one
tail differ only in b, so both per-chain tests are decided once per tail,
for all its children at once:

 * round trip: the expansion's first digit is ceil(m/q) = b and its
   remainder is (m', q'), so a chain round-trips iff 0 <= q' < m' and its
   tail round-trips, whatever b is;
 * recognition prefilter: every accepted chain has m dividing (q + 1)**2
   (see ``_recognized``), and here (q + 1)**2 = (m' + 1)**2.  With entries
   >= 2 continuants strictly increase, so every tail has m' > 0 and q', p'
   in [0, m') (the empty chain has m' = 1, q' = p' = 0).  Then m >= m' + 1,
   so the cofactor k = (m' + 1)**2 / m is at most m' + 1, and k*m = 1 with
   m = -q' and p'*q' = 1 (mod m') give k = -p' (mod m').  So k is m' - p'
   or, only where that is 1, m' + 1: one modulo per tail finds the tails
   with a candidate digit, at most two each.

The prefilter's hits are few: 120 tails over the 16 blocks of a (6, 12)
scan (exactly the accepted chains), 502 over 1,468 at (8, 12).  So a block
only copies their states (m', q', p') and the index of its first tail;
the candidate digits, their bound and the exact gcd recognition run once
per scan over every hit together, and earlier whenever the next block's
hits would take the collection past CHUNK.

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
builds is longer than CHUNK, whatever the bounds.  Each block costs about
a dozen numpy calls whatever its size, a cost that dominates where n**base
falls far below CHUNK and the walk steps many small blocks.  Medians of
alternated in-process scans (2-vCPU Xeon VM, Python 3.11, numpy 2.4; six
processes per kernel, each the median of 300 scans at (6, 12), 5 at
(8, 12), 40 at (8, 8) and (5, 30) and 100 at (3, 300)): (6, 12) in 1.8 ms
and (8, 12) in 0.16 s, in blocks of 14641 tails; (8, 8), (5, 30) and
(3, 300), in 404, 873 and 301 blocks of 2401, 841 and 299 tails, in 13, 14
and 3.2 ms.  In the same runs the earlier kernel, which carried each
chain's determinant and its tail's through the walk and tested their sign
per tail, took 2.6 ms, 0.23 s, 16, 19 and 4.8 ms.

Each scan allocates one workspace (``_Workspace``), n**base entries long,
and writes the walk's arrays into it, with ``out=`` or in place: the
scratch arrays of the per-tail tests and one state set per depth of the
walk.  Besides the workspace, a scan allocates only its tables, the scratch
arrays of each table below the last (each tested in one block), the
copies of each block's hits and the arrays of the recognition pass.  A
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
n**base <= CHUNK < n**(base + 1).  A block of 2**14 chains keeps the nine
128 KB int64 arrays it touches (the tail's state, the children's m and p
and three scratch arrays) in one core's L2, so each elementwise pass of the
scan reads from cache rather than from memory.  It bounds memory too:
besides the tables, the workspace holds one state set per depth of the
walk, so a scan peaks at a few MB whatever the bounds.  On a 2-vCPU Xeon
with 2 MB of L2 per core (Python 3.11, numpy 2.4; medians of 300
scans at (6, 12) and of 5 at (8, 12), four processes per value in
alternating order), 2**14, 2**15 and 2**16 all give base 4 at n = 11 and
scanned alike, in 1.7-2.1 ms and 0.14-0.18 s; 2**13 gives base 3, blocks
of 1331 tails, and took 2.7-4.3 ms and 0.28-0.31 s.
"""

_INT64_MAX = 2**63 - 1


def _max_numerator(max_len: int, max_entry: int) -> int:
    """Largest m within the bounds: the continuant of [max_entry] * max_len.

    A continuant is increasing in every entry >= 2 and in the length, so every
    m, p and q the scan meets is at most this in absolute value.
    """
    prev, cur = 1, max_entry
    for _ in range(max_len - 1):
        prev, cur = cur, max_entry * cur - prev
    return cur


def _roundtrips(np, tail, out, scratch):
    """Whether each chain of tail round-trips once any digit is put in front,
    written into out; scratch is a second bool array of the tail's size.

    With b in front of a tail of value m'/q', the first step's remainder
    b*q - m = b*m' - (b*m' - q') is q' whatever b is, so the step holds iff
    0 <= q' < m' (which implies m' > 0).
    """
    m_t, q_t = tail[:2]
    np.greater_equal(q_t, 0, out=out)
    out &= tail[-1]
    out &= np.less(q_t, m_t, out=scratch)
    return out


def _table(np, tail, ok, max_entry):
    """The chains one longer than tail's, as a new table; ok is tail's
    round-trip mask, as ``_Tally.children`` wrote it.

    Index i of that length puts the digit 2 + i // S in front of the chain
    at index i % S of tail, S = len(tail).  So each digit's row is tail with
    that digit in front, and the rows are one broadcast per state array.
    """
    m_t, q_t, p_t, p_tt, _ = tail
    n = max_entry - 1
    b = np.arange(2, max_entry + 1, dtype=np.int64)[:, None]
    return ((b * m_t - q_t).ravel(), np.tile(m_t, n), (b * p_t - p_tt).ravel(),
            np.tile(p_t, n), np.tile(ok, n))


def _sign_failures(np, max_len, lo, max_entry) -> int:
    """How many chains [b1..bl], 1 <= l <= max_len, lo <= bi <= max_entry,
    have a determinant without the sign (-1)**l.

    By the lemma in the module docstring, the determinants of [lo]*l decide
    every length until one fails; they follow the recurrence
    det_l = -lo*det_(l-1) - det_(l-2), so this costs O(max_len).  From the
    first failing length on, the lemma no longer holds, and each chain's
    determinant is computed and counted, tail by tail as ``_table`` builds
    states.  With lo = 2 no length fails: det([2]*l) = (-1)**l * (l + 1).
    """
    det, det_tail = 1, 0  # the empty chain, and 0 for the tail it lacks
    for length in range(1, max_len + 1):
        det, det_tail = -lo * det - det_tail, det
        if (det >= 0) if length & 1 else (det <= 0):
            break
    else:
        return 0
    digits = np.arange(lo, max_entry + 1, dtype=np.int64)[:, None]
    det, det_tail = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    count = 0
    for length in range(1, max_len + 1):
        det, det_tail = (-digits * det - det_tail).ravel(), np.tile(det, digits.size)
        count += int(np.count_nonzero(det >= 0 if length & 1 else det <= 0))
    return count


def _recognized(np, m, qq):
    """Whether each m/(qq - 1) is d*n^2/(d*n*a - 1) with n >= 2, 0 < a < n.

    g = gcd(m, qq), n = m/g, a = qq/g, d = g/n.  Every accepted value has
    m = g*n dividing g**2, which divides qq**2.
    """
    g = np.gcd(m, qq)
    n = m // g
    return (n >= 2) & (qq // g < n) & (g % n == 0)


def _prefilter(np, tail, work):
    """The indices of the tails with a child whose m divides
    (q + 1)**2 = (m' + 1)**2: those whose first cofactor m' - p' divides
    (m' + 1)**2.  The second cofactor only exists where the first is 1,
    which divides every square."""
    m_t, _, p_t = tail[:3]
    square, k, rest = work.ints
    np.add(m_t, 1, out=square)
    square *= square
    np.subtract(m_t, p_t, out=k)
    np.remainder(square, k, out=rest)
    return np.flatnonzero(np.equal(rest, 0, out=work.mask))


def _candidates(np, hits, max_entry):
    """The children of the tails hits = (m', q', p') whose m divides
    (q + 1)**2 = (m' + 1)**2; the tails are those ``_prefilter`` found.

    Returns (at, b, m): the child with digit b[j] of tail at[j] has value
    m[j]/m'.  Every tail is in the range the cofactor identity needs
    (m' > 0 and q', p' in [0, m')), so each cofactor m' - p' is positive.
    """
    m_t, q_t, p_t = hits
    square = (m_t + 1) ** 2
    k = m_t - p_t
    # the second cofactor 2*m' - p' is at most m' + 1 only where m' - p' == 1
    two = np.flatnonzero(k == 1)
    at = np.concatenate((np.arange(m_t.size), two))
    m = square[at] // np.concatenate((k, m_t[two] + 1))
    # m = -q' (mod m'), so b is exact; and b >= 2: a cofactor k <= m' gives
    # m > m' + 1, and p' = m' - 1 forces q' = m' - 1 (p'*q' = 1), so the
    # cofactor m' + 1 gives b = 2
    b = (m + q_t[at]) // m_t[at]
    keep = b <= max_entry
    return at[keep], b[keep], m[keep]


class _Workspace:
    """Every array of a scan's walk, allocated once.

    Three int64 and one bool scratch arrays for the per-tail tests, one
    state set (m, p, ok) for each depth of the walk below the last table
    (a state's q and p_tail are its tail's m and p, which the depth above
    holds), and the round-trip mask of the last length, which is no tail
    and so has no state set; each holds width entries, the size of every
    block of the walk.  A table below the last is shorter, and is tested
    with a workspace of its own size.
    """

    def __init__(self, np, width, depths):
        def arrays(*dtypes):
            return tuple(np.empty(width, dtype=t) for t in dtypes)

        i64 = np.int64
        self.width = width
        self.ints = arrays(i64, i64, i64)
        self.mask = np.empty(width, dtype=bool)
        self.states = [arrays(i64, i64, bool) for _ in range(depths)]
        self.last_ok = np.empty(width, dtype=bool)


class _Tally:
    """The scan's tests over its arrays of chains, accumulated.

    Each block keeps its per-tail work: the count, the round-trip mask and
    the prefilter.  The few tails the prefilter finds are collected as
    plain data and recognized together, at the end of the scan or whenever
    more than CHUNK would be collected.  The sign test is no block's work:
    ``_sign_failures`` settles it once per length.
    """

    def __init__(self, np, max_entry, work):
        self.np = np
        self.max_entry = max_entry
        self.work = work
        self.total = 0
        self.roundtrip = 0
        self.hits = []  # per block: (length, offset, at, m', q', p')
        self.collected = 0
        self.accepted = []

    def children(self, length, tail, ok, offset):
        """Count and test the chains of the given length that put one digit
        in front of a chain of tail, once per tail; offset is the index of
        tail's first chain among the chains of its length, and tail's chains
        are consecutive from there.  The children's round-trip mask, one
        entry per tail chain, is written into ok for the caller to build
        them with."""
        np, top, work = self.np, self.max_entry, self.work
        m_t, q_t, p_t = tail[:3]
        size = m_t.size
        self.total += (top - 1) * size
        if size != work.width:  # a table below the last, tested in one block
            work = _Workspace(np, size, 0)
        _roundtrips(np, tail, ok, work.mask)
        self.roundtrip += (top - 1) * (size - int(np.count_nonzero(ok)))
        at = _prefilter(np, tail, work)
        if at.size:
            if self.collected + at.size > CHUNK:
                self.recognize()
            # the walk overwrites tail's states in place, so keep copies
            self.hits.append((length, offset, at, m_t[at], q_t[at], p_t[at]))
            self.collected += at.size

    def recognize(self):
        """Recognize the children of the collected tails, in one pass over
        all of them, and add the accepted ones, as tuples of ints."""
        if not self.hits:
            return
        np = self.np
        lengths, offsets, at, *states = zip(*self.hits)
        counts = [a.size for a in at]
        states = tuple(np.concatenate(a) for a in states)
        # each tail's index among the chains of its length, and the length of
        # its children
        index = np.concatenate(at) + np.repeat(offsets, counts)
        lengths = np.repeat(lengths, counts)
        at, b, m = _candidates(np, states, self.max_entry)
        hit = _recognized(np, m, states[0][at] + 1)
        at, b = at[hit], b[hit]
        n = self.max_entry - 1
        self.accepted.extend(
            (d,) + _digits(i, length - 1, n)
            for i, length, d in zip(index[at].tolist(), lengths[at].tolist(), b.tolist()))
        self.hits.clear()
        self.collected = 0

    def finish(self) -> list:
        """The accepted chains of the whole scan, in lexicographic order."""
        self.recognize()
        return sorted(self.accepted)


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
    class_t is the list of accepted chains in lexicographic order.  The scan
    tests the children of each tail together and finds them out of that
    order, so the list is sorted before it is returned.  All four are plain
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
    table = (one, zero, zero, -one, np.ones(1, dtype=bool))

    for length in range(base):
        # the chains one longer than the table are its children
        ok = np.empty(table[0].size, dtype=bool)
        tally.children(length + 1, table, ok, 0)
        table = _table(np, table, ok, max_entry)

    def extend(tail, offset, depth):
        # every child of tail is tested once per tail; only the lengths below
        # max_len are built, since only they are tails themselves.  The
        # children are built in the state set of this depth, whose ok the
        # tally writes (at max_len, which has no state set, it writes
        # last_ok), and m and p step from digit b to b + 1 in place by
        # adding m_tail and p_tail.  The chains of tail are the table's
        # chains behind depth head digits, so they are consecutive from
        # offset, and the child tail with digit b starts at
        # (b - 2)*n**(length - 1) + offset
        length = base + 1 + depth
        m_t, q_t, p_t, p_tt, _ = tail
        if length == max_len:
            ok = work.last_ok
        else:
            m, p, ok = work.states[depth]
        tally.children(length, tail, ok, offset)
        if length == max_len:
            return
        # the digit 1
        np.subtract(m_t, q_t, out=m)
        np.subtract(p_t, p_tt, out=p)
        stride = n ** (length - 1)
        for b in range(2, max_entry + 1):
            m += m_t
            p += p_t
            extend((m, m_t, p, p_t, ok), (b - 2) * stride + offset, depth + 1)

    extend(table, 0, 0)
    negdef = _sign_failures(np, max_len, 2, max_entry)
    return tally.total, tally.finish(), negdef, tally.roundtrip
