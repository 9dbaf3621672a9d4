"""Brute-force rewriting oracle: bounded closures under YY <-> YYY.

Ground truth for the fast pipeline, at small scale only. The closure of a
word under both rewrite directions inside a length budget gives a partial
view of its equivalence class: membership proves equivalence, and nothing
here ever proves inequivalence.

A word is held as the integer `overlap._as_int` reads: a leading sentinel
1, then one bit per letter, the last letter lowest. A longer word is a
larger integer, and words of one length compare as they read, so integer
order is (length, lex) order: the heap holds bare integers, and the members
are decoded once, in order, at the end.

A neighbour step reads squares and cubes off `overlap`'s run mask, one per
period p, computed inline. All squares (cubes) of period p in one run, a
maximal factor of period p, rewrite to the same word: expanding one
inserts, and contracting one deletes, p letters that continue the run. So
one word is built per run, with two shifts and a mask.
"""
from __future__ import annotations

import heapq
from enum import Enum
from typing import NamedTuple

from . import overlap, words


def _neighbours(x: int, n: int, length_bound: int) -> tuple[set[int], bool]:
    """One rewrite step each way from the n-letter word x; clipped reports
    a blocked expansion."""
    out: set[int] = set()
    clipped = False
    nx, full = ~x, (1 << n) - 1
    for p in range(1, n // 2 + 1):
        if clipped and 3 * p > n:
            break  # no cube has this period, and no square can grow
        # overlap._run_mask(x, n, p, p), inline
        sq = (nx ^ (x >> p)) & (full >> p)
        have = 1
        while 2 * have < p and sq:
            sq &= sq >> have
            have *= 2
        if have < p:
            sq &= sq >> (p - have)
        if not sq:
            continue
        # Bit i: a square at j = n-2p-i, whose letters and all after it are
        # x's low k = 2p+i bits. It grows to w[:j+p] + w[j:]; with bit i+p,
        # a cube at j-p shrinks to w[:j-p] + w[j:].
        if n + p > length_bound:
            clipped = True
        else:
            m = sq & ~(sq >> 1)  # the leftmost of each run gives the run's one word
            while m:
                k = m.bit_length() - 1
                m ^= 1 << k
                k += 2 * p
                out.add((x >> (k - p)) << k | (x & ((1 << k) - 1)))
        m = sq & (sq >> p)
        m &= ~(m >> 1)
        while m:
            k = m.bit_length() - 1
            m ^= 1 << k
            k += 2 * p
            out.add((x >> (k + p)) << k | (x & ((1 << k) - 1)))
    return out, clipped


class ClosureResult(NamedTuple):
    seed: str
    members: tuple[str, ...]  # sorted by (length, lexicographic)
    exhausted: bool
    length_bound: int
    step_bound: int


_LETTERS = str.maketrans("01", "ab")  # decodes bin(x)[3:] back to letters


def closure(
    seed: str,
    length_bound: int,
    step_bound: int = 1_000_000,
    stop_on: str | None = None,
) -> ClosureResult:
    """Breadth-first closure in deterministic (length, lex) expansion order.

    exhausted=False flags either a blocked expansion at the length bound or
    running out of step budget; the partial result is still returned.
    stop_on short-circuits once the given word is generated (the member list
    is then partial, which is all equivalence probing needs); a stop_on that
    is not a word raises WordError.
    """
    words.check_word(seed)
    if length_bound < len(seed):
        raise ValueError(f"length bound {length_bound} below |seed| = {len(seed)}")
    x = overlap._as_int(seed)
    stop = None if stop_on is None else overlap._as_int(stop_on)
    visited = {x}
    heap = [x]
    steps = 0
    exhausted = True
    while heap:
        if steps >= step_bound:
            exhausted = False
            break
        x = heapq.heappop(heap)
        steps += 1
        nbrs, clipped = _neighbours(x, x.bit_length() - 1, length_bound)
        if clipped:
            exhausted = False
        new = nbrs - visited
        visited |= new
        if stop in visited:  # never when stop_on is None
            exhausted = False
            break
        for y in new:
            heapq.heappush(heap, y)
    members = tuple([bin(y)[3:].translate(_LETTERS) for y in sorted(visited)])
    return ClosureResult(seed, members, exhausted, length_bound, step_bound)


class OracleAnswer(Enum):
    YES = "YES"
    UNKNOWN = "UNKNOWN"


def oracle_equiv(u: str, v: str, length_bound: int) -> OracleAnswer:
    """YES when v is reachable from u through words of at most
    max(length_bound, len(u), len(v)) letters; UNKNOWN otherwise, never no.

    Each rewrite inside the bound is undone by one inside it, so closures
    from u and from v under that bound meet exactly when this one reaches v.
    """
    words.check_word(v)  # u is checked by its closure, or equals v
    if u == v:
        return OracleAnswer.YES
    cu = closure(u, max(length_bound, len(u), len(v)), stop_on=v)
    return OracleAnswer.YES if v in cu.members else OracleAnswer.UNKNOWN


def enumerate_aof(max_len: int) -> list[str]:
    """All almost overlap-free words up to max_len, in (length, lex) order.

    The empty word is left out. Prefixes of almost overlap-free words are
    almost overlap-free (both defining factors of a prefix are proper
    factors of the longer word), so extension with pruning is exhaustive.
    """
    out: list[str] = []
    level = [""]
    for _ in range(max_len):
        nxt = []
        for w in level:
            for c in "ab":
                x = w + c
                if words.is_almost_overlap_free(x):
                    nxt.append(x)
        out.extend(nxt)
        level = nxt
        if not level:
            break
    return out
