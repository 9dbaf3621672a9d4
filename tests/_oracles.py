"""Slow reference implementations the tests compare against.

Everything here is deliberately dumb: nested loops, letter-by-letter or
slice comparisons, no regexes, and no imports from the package. If a fast path
and one of these ever disagree, trust this file.
"""
from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator
from functools import cache


def words_up_to(max_len: int, min_len: int = 1) -> Iterator[str]:
    for n in range(min_len, max_len + 1):
        for tup in itertools.product("ab", repeat=n):
            yield "".join(tup)


def has_overlap_slow(w: str) -> bool:
    n = len(w)
    for p in range(1, n // 2 + 1):
        for i in range(n - 2 * p):
            if all(w[i + j] == w[i + j + p] for j in range(p + 1)):
                return True
    return False


def aof_slow(w: str) -> bool:
    if len(w) <= 2:
        return True
    return not has_overlap_slow(w[:-1]) and not has_overlap_slow(w[1:])


def uniform_slow(w: str) -> bool:
    parities = {i % 2 for i in range(len(w) - 1) if w[i] == w[i + 1]}
    return len(parities) <= 1


_FLIP = {"a": "b", "b": "a"}


def phi_image_slow(w: str) -> bool:
    if len(w) % 2:
        return False
    return all(w[2 * i + 1] == _FLIP[w[2 * i]] for i in range(len(w) // 2))


def _negate(w: str) -> str:
    return "".join(_FLIP[c] for c in w)


@cache
def _tail_patterns(n: int) -> tuple[tuple[str, str, str], ...]:
    """(family, class, left-side word) of every tail block pattern of <= n letters.

    Class A: (aab)^k ba with k >= 2 (nonuniform) and (aba)^i (ab)^j aa with
    i >= 1, j >= 2 (nonreducible); class B: their negations.
    """
    out = []
    for k in range(2, n // 3 + 1):
        out.append(("nonuniform", "aab" * k + "ba"))
    for i in range(1, n // 3 + 1):
        for j in range(2, n // 2 + 1):
            out.append(("nonreducible", "aba" * i + "ab" * j + "aa"))
    return tuple(
        (family, cls, x)
        for family, a in out
        if len(a) <= n
        for cls, x in (("A", a), ("B", _negate(a)))
    )


def tails_slow(w: str) -> list[tuple[str, str, str, int, int]]:
    """(family, side, class, start, end) for every tail block pattern at an end of w.

    A left tail is a prefix equal to a pattern word, a right tail a suffix
    equal to its reversal; spans are 1-indexed and inclusive. Every matching
    block count gets its own entry.
    """
    n = len(w)
    out = []
    for family, cls, x in _tail_patterns(n):
        m = len(x)
        if w[:m] == x:
            out.append((family, "left", cls, 1, m))
        if w[n - m :] == x[::-1]:
            out.append((family, "right", cls, n - m + 1, n))
    return out


def unprotected_sites_slow(w: str) -> list[tuple[tuple[int, int], str]]:
    """((start, end), class) of each aXa / bXb site of a cube-collapsed word
    that is not wrapped as ab...ba / ba...ab; spans 1-indexed, left to right.

    A site runs from a double cc to the next double, when that is cc again.
    """
    n = len(w)
    out = []
    for i in range(n - 1):
        for j in range(i + 3, n):
            c = w[i]
            if not (w[i + 1] == c and w[j - 1] == c and w[j] == c):
                continue
            if any(w[k] == w[k + 1] for k in range(i + 1, j - 1)):
                continue
            before, after = ("ab", "ba") if c == "a" else ("ba", "ab")
            wrapped = (
                i >= 2 and w[i - 2] == before[0] and w[i - 1] == before[1]
                and j + 2 < n and w[j + 1] == after[0] and w[j + 2] == after[1]
            )
            if not wrapped:
                out.append(((i + 1, j + 1), "A" if c == "a" else "B"))
    return out


def _in_special_slow(w: str) -> bool:
    """Membership in (aab)^2(aab)*(b(aab)*aab)*(baa)*(baa)^2 or its negation.

    Read the word less its last two letters aa over the prefix code {aab, b}:
    at least two blocks aab first, then groups of a b and one or more blocks.
    """
    for x in (w, _negate(w)):
        if not x.endswith("aa"):
            continue
        body, tokens, i = x[:-2], "", 0
        while i < len(body):
            if body[i : i + 3] == "aab":
                tokens, i = tokens + "k", i + 3
            elif body[i] == "b":
                tokens, i = tokens + "b", i + 1
            else:
                break
        else:
            if tokens[:2] == "kk" and "b" in tokens and "bb" not in tokens and tokens[-1] == "k":
                return True
    return False


def _split_slow(w: str) -> tuple[str, str, str]:
    """(h, x, t) with w == h + phi(x) + t for a uniform w: the block pairs
    start at the parity the doubles avoid, at 0 when there is no double."""
    parities = {i % 2 for i in range(len(w) - 1) if w[i] == w[i + 1]}
    h = 1 - parities.pop() if parities else 0
    core_end = h + (len(w) - h) // 2 * 2
    core = w[h:core_end]
    if not phi_image_slow(core):
        raise ValueError(f"no phi-image core in {w!r}")
    return w[:h], core[::2], w[core_end:]


def _collapse_sites_slow(w: str) -> str:
    """Collapse the leftmost site cXc to cc, from one double to the next
    double of the same letter, until none is left."""
    while True:
        doubles = [i for i in range(len(w) - 1) if w[i] == w[i + 1]]
        for i, k in zip(doubles, doubles[1:]):
            if w[i] == w[k]:
                w = w[:i] + w[i : i + 2] + w[k + 2 :]
                break
        else:
            return w


def descent_slow(w: str) -> tuple[str, list[tuple[str, str, str, str]]]:
    """The stop word of the descent and (L, R, h, t) for each round, the last
    one included. Each round runs the paper's steps on the slow references:
    r1; a stop on a short or special-class word; the non-uniform tails
    trimmed to their 7 letters next to the rest; on a word still not
    uniform, a stop on an open site or a non-reducible tail, else its sites
    collapsed; and the split of the uniform word left."""
    rounds = []
    while True:
        u = r1_by_runs(w)
        if len(u) <= 2 or _in_special_slow(u):
            rounds.append(("", "", "", ""))
            return u, rounds
        lo, hi = 0, len(u)
        for family, side, _, start, end in tails_slow(u):
            if family == "nonuniform" and side == "left":
                lo = end - 7
            elif family == "nonuniform":
                hi = start + 6
        L, R = u[0] if lo else "", u[-1] if hi < len(u) else ""
        v = u[lo:hi]
        if not uniform_slow(v):
            stuck = any(family == "nonreducible" for family, *_ in tails_slow(v))
            if stuck or unprotected_sites_slow(v):
                rounds.append((L, R, "", ""))
                return u, rounds
            v = _collapse_sites_slow(v)
        h, w, t = _split_slow(v)
        rounds.append((L, R, h, t))


def rebuild_slow(rep: str, tape: list[tuple[str, str, str, str]]) -> str:
    """The word rebuilt from rep through a descent's (L, R, h, t) rounds, as
    descent_slow returns them: every round but the last, bottom up, makes
    h phi(w) t, collapses it to YY if it is a cube YYY, and adds L and R."""
    w = rep
    for L, R, h, t in reversed(tape[:-1]):
        w = h + "".join("ab" if c == "a" else "ba" for c in w) + t
        y = w[: len(w) // 3]
        if len(w) % 3 == 0 and w == y + y + y:
            w = y + y
        w = L + w + R
    return w


def r1_slow(w: str) -> str:
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 2):
            if w[i] == w[i + 1] == w[i + 2]:
                w = w[:i] + w[i + 1 :]
                changed = True
                break
    return w


def r1_by_runs(w: str) -> str:
    """Each maximal run of one letter cut to at most 2 letters; linear, for
    words too long for r1_slow."""
    return "".join(c * min(2, len(list(run))) for c, run in itertools.groupby(w))


def neighbours_slow(w: str, length_bound: int) -> tuple[set[str], bool]:
    """Every square expanded and every cube contracted, one (period, position)
    pair at a time; clipped reports a square whose expansion would exceed the
    bound. The reference for the oracle's neighbour step."""
    out: set[str] = set()
    clipped = False
    n = len(w)
    for per in range(1, n // 2 + 1):
        grow_ok = n + per <= length_bound
        for i in range(0, n - 2 * per + 1):
            if w[i : i + per] == w[i + per : i + 2 * per]:
                if grow_ok:
                    out.add(w[: i + per] + w[i:])
                else:
                    clipped = True
                    break
    for per in range(1, n // 3 + 1):
        for i in range(0, n - 3 * per + 1):
            if w[i : i + per] == w[i + per : i + 2 * per] == w[i + 2 * per : i + 3 * per]:
                out.add(w[:i] + w[i + per :])
    return out, clipped


def closure_slow(
    seed: str, length_bound: int, step_bound: int = 1_000_000, stop_on: str | None = None
) -> tuple[str, tuple[str, ...], bool, int, int]:
    """The fields of oracle.closure's result, from a breadth-first search over
    neighbours_slow that expands the shortest, then alphabetically first,
    word found and not yet expanded. The reference for partial closures."""
    def key(w: str) -> tuple[int, str]:
        return len(w), w

    found = {seed}
    todo = [key(seed)]
    steps = 0
    exhausted = True
    while todo:
        if steps >= step_bound:
            exhausted = False
            break
        _, w = heapq.heappop(todo)
        steps += 1
        nbrs, clipped = neighbours_slow(w, length_bound)
        if clipped:
            exhausted = False
        for v in nbrs - found:
            found.add(v)
            heapq.heappush(todo, key(v))
        if stop_on in found:
            exhausted = False
            break
    return seed, tuple(sorted(found, key=key)), exhausted, length_bound, step_bound


def thue_morse(n: int) -> str:
    """The first n letters of the Thue-Morse word: letter i is b iff i has odd popcount."""
    return "".join("ab"[i.bit_count() & 1] for i in range(n))


def _ends_in_overlap(w: str) -> bool:
    n = len(w)
    for p in range(1, (n - 1) // 2 + 1):
        if w[n - 2 * p - 1 : n - p] == w[n - p - 1 :]:
            return True
    return False


def overlap_free_words(max_len: int) -> Iterator[str]:
    """Every nonempty overlap-free word of length at most max_len.

    Grows words letter by letter. A one-letter extension of an overlap-free
    word can only create overlaps that are suffixes, so only those are tested.
    """
    stack = ["a", "b"]
    while stack:
        w = stack.pop()
        yield w
        if len(w) < max_len:
            for c in "ab":
                if not _ends_in_overlap(w + c):
                    stack.append(w + c)


# The window bounds each walk step's scan on seeds of 2^14 letters.
_WALK_MAX_PERIOD = 16
_WALK_WINDOW = 64


def class_walk(w: str, rng, steps: int) -> str:
    """Take `steps` random moves inside the class of w and return the word reached.

    A move expands a square YY to the cube YYY or contracts a cube YYY to the
    square YY, with |Y| <= _WALK_MAX_PERIOD; both keep the class. Each step scans
    from a random start (wrapping round) for squares and cubes, at least
    _WALK_WINDOW start positions and on until a square is found. Then on a fair
    coin it contracts one of the cubes found, or else (or when there is
    none) expands one of the squares found. A word with no square is alone
    in its class and stays as it is.
    """
    for _ in range(steps):
        n = len(w)
        squares, cubes = [], []
        start = rng.randrange(n) if n else 0
        for d in range(n):
            if d >= _WALK_WINDOW and squares:
                break
            i = (start + d) % n
            for p in range(1, min(_WALK_MAX_PERIOD, (n - i) // 2) + 1):
                y = w[i : i + p]
                if w[i + p : i + 2 * p] == y:
                    squares.append((i, p))
                    if w[i + 2 * p : i + 3 * p] == y:
                        cubes.append((i, p))
        if not squares:
            return w
        if cubes and rng.random() < 0.5:
            i, p = rng.choice(cubes)
            w = w[: i + p] + w[i + 2 * p :]
        else:
            i, p = rng.choice(squares)
            w = w[: i + p] + w[i : i + p] + w[i + p :]
    return w
