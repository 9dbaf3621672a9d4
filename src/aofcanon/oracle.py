"""Brute-force rewriting oracle: bounded closures under YY <-> YYY.

Ground truth for the fast pipeline, at small scale only. The closure of a
word under both rewrite directions inside a length budget gives a partial
view of its equivalence class: intersection proves equivalence, and nothing
here ever proves inequivalence.

A neighbour step reads squares and cubes off `overlap`'s run mask, one per
period p. All squares (cubes) of period p in one run, a maximal factor of
period p, rewrite to the same word: expanding one inserts, and contracting
one deletes, p letters that continue the run. So one word is built per run.
"""
from __future__ import annotations

import heapq
from enum import Enum
from typing import NamedTuple

from . import overlap, words


def _neighbours(w: str, length_bound: int) -> tuple[set[str], bool]:
    """One rewrite step each way; clipped reports a blocked expansion."""
    out: set[str] = set()
    clipped = False
    n = len(w)
    x = overlap._as_int(w)
    for p in range(1, n // 2 + 1):
        sq = grow = overlap._run_mask(x, n, p, p)
        if not sq:
            continue
        if n + p > length_bound:
            clipped, grow = True, 0
        # Bit i: a square at j = n-2p-i, which grows to w[:j+p] + w[j:]; with
        # bit i+p, a cube at j-p, which shrinks to w[:j-p] + w[j:].
        for m, d in ((grow, p), (sq & (sq >> p), -p)):
            m &= ~(m >> 1)  # the leftmost of each run gives the run's one word
            while m:
                i = m.bit_length() - 1
                m ^= 1 << i
                j = n - 2 * p - i
                out.add(w[: j + d] + w[j:])
    return out, clipped


class ClosureResult(NamedTuple):
    seed: str
    members: tuple[str, ...]  # sorted by (length, lexicographic)
    exhausted: bool
    length_bound: int
    step_bound: int


def _sort_key(w: str) -> tuple[int, str]:
    return len(w), w


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
    is then partial, which is all equivalence probing needs).
    """
    words._check_nonempty(seed)
    if length_bound < len(seed):
        raise ValueError(f"length bound {length_bound} below |seed| = {len(seed)}")
    visited = {seed}
    heap = [_sort_key(seed)]
    steps = 0
    exhausted = True
    while heap:
        if steps >= step_bound:
            exhausted = False
            break
        _, w = heapq.heappop(heap)
        steps += 1
        nbrs, clipped = _neighbours(w, length_bound)
        if clipped:
            exhausted = False
        new = nbrs - visited
        visited |= new
        if stop_on is not None and stop_on in visited:
            exhausted = False
            break
        for x in new:
            heapq.heappush(heap, _sort_key(x))
    return ClosureResult(
        seed, tuple(sorted(visited, key=_sort_key)), exhausted, length_bound, step_bound
    )


class OracleAnswer(Enum):
    YES = "YES"
    UNKNOWN = "UNKNOWN"


def oracle_equiv(
    u: str, v: str, length_bound: int, step_bound: int = 1_000_000
) -> OracleAnswer:
    """YES when the bounded closures meet; UNKNOWN otherwise, never no."""
    words._check_nonempty(v)  # u is checked by its closure, or equals v
    if u == v:
        return OracleAnswer.YES
    cu = closure(u, max(length_bound, len(u)), step_bound, stop_on=v)
    mu = set(cu.members)
    if v in mu:
        return OracleAnswer.YES
    cv = closure(v, max(length_bound, len(v)), step_bound)
    if mu & set(cv.members):
        return OracleAnswer.YES
    return OracleAnswer.UNKNOWN


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
