"""Slow reference implementations the tests compare against.

Everything here is deliberately dumb: nested loops, letter-by-letter or
slice comparisons, no regexes, and no imports from the package. If a fast path
and one of these ever disagree, trust this file.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterator


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


def has_cube_slow(w: str) -> bool:
    n = len(w)
    for p in range(1, n // 3 + 1):
        for i in range(n - 3 * p + 1):
            if all(w[i + j] == w[i + j + p] for j in range(2 * p)):
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
