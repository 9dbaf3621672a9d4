"""Overlap detection for binary words, in linear time.

An overlap is a factor of length 2p+1 with period p (equivalently cYcYc with
c a letter and Y possibly empty). Checking every period at every position is
quadratic, which is fine up to a few hundred letters and hopeless at a
megabyte.

Two facts make the fast checks. First, every square in a binary overlap-free
word has period 2^k or 3*2^k (Shelton-Soni 1985). Take a shortest overlap
factor F of a word, with period p. Its prefix F[:2p] is a square, and that
square is overlap-free, because an overlap inside it would be a shorter
overlap factor of the word. So p is 2^k or 3*2^k, and a word has an overlap
exactly when it has one of such a period. A word of length n has an
overlapping proper factor (2p+1 <= n-1) exactly when its shortest overlap is
one. The tests' reference scans every period.

Second, every overlap-free binary word of 7 letters or more is x phi(u) y,
with x and y in {'', a, b, aa, bb} and u overlap-free (Restivo-Salemi 1985),
and phi(u) is overlap-free exactly when u is (Thue). `has_overlap`
desubstitutes a word w above `_FLOOR` letters one round at a time (Kfoury
1988). The doubles aa and bb of phi(u) start at odd offsets from its first
letter, so the first double in w[2:7], which lies inside phi(u), fixes the
parity of |x|: an odd |x| is 1, and an even |x| is 2 exactly when w starts
with a double, which no block ab or ba is. The parity of |y| follows from
|phi(u)| being even, and y is fixed the same way from the other end. A
w[2:7] with no double is ababa or babab, an overlap. If the core between the
fringes is not a phi-image, w has an overlap; if u = core[::2] has one, so
has w. Otherwise every overlap of w holds a fringe letter, so w's shortest
one starts in x or ends in y: one comparison per fringe letter and period
(`fringe_overlap`; `pipeline.normalize` runs it on each round word it
builds as x phi(u) y). The next round reads u, half as long, so the test is
O(n). It needs more than 8 letters, for w[2:7] to sit inside the core, and
costs tens of microseconds of Python per round, which loses to the scan
below on words of up to a few thousand letters; `_FLOOR` is set at 4096,
and below it, and at the end of the rounds, the scan runs. A word's proper
factors are tested in the same pass: first w[:-1], then only the suffixes
of w that could hold an overlap of w[1:] that w[:-1] lacks.

The scan tests each period at C speed. Read the word as an integer with one
bit per letter, the last letter lowest, under a leading sentinel 1. Below
bit n-p, a set bit i of ~(x ^ (x >> p)) says the letters at 0-indexed
positions n-1-i-p and n-1-i agree. A factor of period p and length p+need is
a run of `need` set bits, found with about log2(need) shift-and steps; over
the about 2*log2(n) periods 2^k and 3*2^k the cost is O(n log^2 n / word
size). The encoding (`_as_int`) is shared: `oracle` holds its words as
these integers and computes the same per-period mask (`_run_mask`) inline
for its squares and cubes, and the tests' reference scans every period
with `_run_mask`.
"""
from __future__ import annotations

from collections.abc import Iterable

from .errors import WordError

# a -> 0, b -> 1; every other byte -> x, which int(..., 2) rejects
_BITS = b"x" * 97 + b"01" + b"x" * 157
NEGATE = str.maketrans("ab", "ba")  # exchanges a and b, for words.negate and frames.frame
# words up to this length are scanned, longer ones desubstituted first; at least 8
_FLOOR = 4096


def _as_int(s: str) -> int:
    """s read as an integer, as the module note says."""
    try:
        return int(b"1" + s.encode().translate(_BITS), 2)
    except ValueError:  # a byte outside a/b, or a lone surrogate in encode
        raise WordError(f"not a word over {{a,b}}: {s[:32]!r}") from None


def is_word(s: str) -> bool:
    """True when s uses only the letters a and b (the empty word counts).

    A long word is encoded 64K letters at a time: encoding and translating
    it whole would hold two more copies of it at once.
    """
    # isascii first: it reads a flag, and encode() raises on a lone surrogate
    if not s.isascii():
        return False
    if len(s) <= 65536:
        return not s.encode().translate(None, b"ab")
    return not any(
        s[i : i + 65536].encode().translate(None, b"ab") for i in range(0, len(s), 65536)
    )


def _run_mask(x: int, n: int, p: int, need: int) -> int:
    """Bit i set when a factor of period p and length p + need starts at
    n-p-need-i in the n-letter word read as x."""
    run = ~(x ^ (x >> p)) & ((1 << (n - p)) - 1)
    have = 1
    while 2 * have < need and run:
        run &= run >> have
        have *= 2
    # have >= need/2 here (or run is 0), so one last step of at most have
    return run & (run >> (need - have)) if have < need else run


def _scan(s: str, top: int) -> bool:
    """Some factor of s of length 2p+1 with a period p = 2^k or 3*2^k up to top."""
    n = len(s)
    x = _as_int(s)
    return any(_run_mask(x, n, p, p + 1) for p in _square_periods(top))


def _square_periods(top: int) -> Iterable[int]:
    """1, 3, 2, 6, 4, 12, ...: the periods 2^k and 3*2^k up to top."""
    p = 1
    while p <= top:
        yield p
        if 3 * p <= top:
            yield 3 * p
        p *= 2


def has_overlap(s: str, proper: bool = False) -> bool:
    """Some factor of length 2p+1 with period p; a proper factor of s when proper."""
    n = len(s)
    hi = n - 1 if proper else n
    if hi <= _FLOOR:
        # no factor of length 2p+1 fits in hi letters above this period
        return _scan(s, (hi - 1) // 2)
    # the rounds do not read every letter, so check them all first
    if not is_word(s):
        raise WordError(f"not a word over {{a,b}}: {s[:32]!r}")
    if _desubstitute(s, hi):
        return True
    # s[:-1] is overlap-free, so a shortest overlap of s[1:] is a suffix of s
    return proper and fringe_overlap(s, n, 0, 1, (n - 2) // 2)


def fringe_overlap(w: str, n: int, lx: int, ly: int, top: int) -> bool:
    """Some factor of w[:n] with a period p = 2^k or 3*2^k up to top and
    length 2p+1 that starts in the first lx letters or ends in the last ly."""
    for p in _square_periods(top):
        for s in (*range(lx), *range(n - ly - 2 * p, n - 2 * p)):
            # the three letters c of cYcYc first, then the copy of Yc
            if (
                0 <= s < n - 2 * p
                and w[s] == w[s + p] == w[s + 2 * p]
                and w.startswith(w[s + p : s + 2 * p + 1], s)
            ):
                return True
    return False


def _desubstitute(w: str, n: int) -> bool:
    """w[:n] has an overlap, by the rounds of the module note."""
    while n > _FLOOR:
        d = w.find("aa", 2, 7)
        if d < 0:
            d = w.find("bb", 2, 7)
            if d < 0:
                return True  # w[2:7] is ababa or babab
        lx = 1 if d % 2 == 0 else 2 if w[0] == w[1] else 0
        ly = 1 if (n - lx) % 2 else 2 if w[n - 2] == w[n - 1] else 0
        if fringe_overlap(w, n, lx, ly, (n - 1) // 2):
            return True
        u = w[lx : n - ly : 2]
        if u.translate(NEGATE) != w[lx + 1 : n - ly : 2]:
            return True  # the core is not phi(u)
        w, n = u, len(u)
    return _scan(w[:n], (n - 1) // 2)
