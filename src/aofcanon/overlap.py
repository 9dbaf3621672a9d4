"""Overlap and cube detection for binary words, near-linear for overlaps.

An overlap is a factor of length 2p+1 with period p (equivalently cYcYc with
c a letter and Y possibly empty). Checking every period at every position is
quadratic, which is fine up to a few hundred letters and hopeless at a
megabyte.

The fast check rests on one lemma: every square in a binary overlap-free word
has period 2^k or 3*2^k (Shelton-Soni 1985). Take a shortest overlap factor F
of a word, with period p. Its prefix F[:2p] is a square, and that square is
overlap-free, because an overlap inside it would be a shorter overlap factor
of the word. So p is 2^k or 3*2^k, and a word has an overlap exactly when it
has one of such a period. `has_overlap` tests only those periods, about
2*log2(n) of them; `brute_has_overlap` tests every period and is the
reference. A word of length n has an overlapping proper factor (2p+1 <= n-1)
exactly when its shortest overlap is one, so the almost overlap-free check
is the same scan with its period bound `top` set to (n-2)//2.

Each period is one scan at C speed. Read the word as an integer with one bit
per letter, the last letter lowest, under a leading sentinel 1. Below bit
n-p, a set bit i of ~(x ^ (x >> p)) says the letters at 0-indexed positions
n-1-i-p and n-1-i agree. A factor of period p and length p+need is a run of
`need` set bits, found with about log2(need) shift-and steps. The cost is
O(n log^2 n / word size) for `has_overlap`. The encoding (`_as_int`) and the
per-period mask (`_run_mask`) are shared: `oracle` reads its squares and
cubes off the same masks.
"""
from __future__ import annotations

from collections.abc import Iterable

from .errors import WordError

# a -> 0, b -> 1; every other byte -> x, which int(..., 2) rejects
_BITS = b"x" * 97 + b"01" + b"x" * 157


def _as_int(s: str) -> int:
    """s read as an integer, as the module note says."""
    try:
        return int(b"1" + s.encode().translate(_BITS), 2)
    except ValueError:  # a byte outside a/b, or a lone surrogate in encode
        raise WordError(f"not a word over {{a,b}}: {s[:32]!r}") from None


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


def _has_run(s: str, pairs: Iterable[tuple[int, int]]) -> bool:
    """Some (p, need) in pairs with a factor of period p and length p + need."""
    n = len(s)
    x = _as_int(s)
    return any(_run_mask(x, n, p, need) for p, need in pairs)


def _square_periods(top: int) -> Iterable[int]:
    """1, 3, 2, 6, 4, 12, ...: the periods 2^k and 3*2^k up to top."""
    p = 1
    while p <= top:
        yield p
        if 3 * p <= top:
            yield 3 * p
        p *= 2


def brute_has_overlap(s: str) -> bool:
    """Every period, whole word. Quadratic; the reference for has_overlap."""
    return _has_run(s, ((p, p + 1) for p in range(1, (len(s) - 1) // 2 + 1)))


def has_overlap(s: str, top: int | None = None) -> bool:
    """Some factor of length 2p+1 with period p, and p <= top when top is given."""
    # no factor of length 2p+1 fits above this period
    limit = (len(s) - 1) // 2
    top = limit if top is None else min(top, limit)
    return _has_run(s, ((p, p + 1) for p in _square_periods(top)))


def has_cube(s: str) -> bool:
    """Some factor YYY, Y nonempty. Quadratic in the worst case.

    Cube-free checking is not on the hot path.
    """
    return _has_run(s, ((p, 2 * p) for p in range(1, len(s) // 3 + 1)))
