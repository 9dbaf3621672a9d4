"""Length-reducing rewriting: letter cubes, protected-pattern collapses, tails.

Three layers, matching the structure of the rewriting system:

  r1                 collapse every run of a single letter to length 2
  complete_reduction collapse aXa -> aa and bXb -> bb sites (X
                     letter-alternating of odd length) until none remain
  tail_reduce        find the two non-uniform boundary patterns that block
                     equivalence-preserving reduction at the word ends, and
                     the bounds of the word left once each is trimmed

r1 rebuilds the word only when it holds a letter cube, so a cube-collapsed
word costs two substring searches and no copy. It searches right to left,
both letters in one pass: it keeps each letter's last cube, cuts the run of
whichever lies further right, and searches again for that letter alone, so
each letter's search reads the word once. The last cube ends its run, a
search for the other letter left of it finds the run's start, and the run
keeps its first two letters. Searches scan more than twice as fast as the
substitution, but a long word can hold a cube every few letters, so r1 cuts
at most one run per `overlap._FLOOR` letters this way, the last ones, and
hands the word left of them to the substitution, one letter after the other.
All pieces go to one join, so beside the word it was handed r1 holds two
copies of it at most, its pieces and their join, outside the substitution
itself; a join per letter held three. Right to left, because
CPython 3.11's `str.rfind` found every cube of the 298 words r1 gets on
three `long-tm-planted` seeds (58.8 M letters) in 80 ms against 170 ms for
`str.find`, and was never slower on eight 2^20-letter families. That speed
belongs to CPython's string search: on another interpreter, measure again.
The descent calls r1 only on a round word that `frame` finds not uniform,
and hands it the windows `frame` found, the few stretches where a cube can
be: r1 then searches inside them alone, and the letters between them go to
the join as they are.
The functions past r1, complete_reduction among them, take a cube-collapsed
word, as r1 returns it or as a uniform word is, and do not check it again.

In a cube-collapsed word a site is a pair of consecutive doubles of one
letter, so sites come in maximal runs of same-letter doubles. Inside a run
each site is wrapped by its neighbours, so only a run's first site can lack
the pair before it: exactly when its first double follows the other letter's
double or starts within two letters of the word's start. The same fact read
on the reversed word finds the last sites that lack the pair after them. The
site and run patterns and the non-uniform tail patterns repeat possessively
(Python 3.11): a repeat given back never lets the rest match, and Python `re`
pays superlinear time for greedy nested repeats over one giant run.

Spans in reports are 1-indexed and inclusive.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from . import overlap

# runs of 3 or more of each letter
_CUBE_RUN_A = re.compile(r"aaa+")
_CUBE_RUN_B = re.compile(r"bbb+")


def r1(w: str, windows: list | None = None) -> str:
    """Collapse every maximal single-letter run of length 3 or more to 2.

    windows, as `frames.frame` answers them, are [start, end) letter spans
    that hold every such run whole; given them, r1 searches them alone. A
    word with no cube costs two substring searches and no rebuild. Its last
    len(w) // overlap._FLOOR runs with a cube cost two searches each, right
    to left; the substitution takes the word left of them, one letter after
    the other.
    """
    ka = kb = -1
    if windows is None:
        ka, kb = w.rfind("aaa"), w.rfind("bbb")
        if ka == kb:  # both -1: no cube, no copy
            return w
        windows = ()
    runs, parts, end, lo, rest = len(w) // overlap._FLOOR, [], len(w), 0, list(windows)
    while True:
        while runs and ka != kb:
            runs -= 1
            # the later of the two last cubes ends its run; end becomes the run's start plus two
            if ka > kb:
                parts.append(w[ka + 3 : end])
                end = w.rfind("b", 0, ka) + 3
                ka = w.rfind("aaa", lo, end - 2)
            else:
                parts.append(w[kb + 3 : end])
                end = w.rfind("a", 0, kb) + 3
                kb = w.rfind("bbb", lo, end - 2)
        if ka != kb or not rest:
            break
        # no cube left in this window: search the next one to the left
        lo, hi = rest.pop()
        ka, kb = w.rfind("aaa", lo, hi), w.rfind("bbb", lo, hi)
    head = w[:end]
    # out of runs, the substitution takes the rest; the windows still in rest were not searched
    if ka >= 0 or rest:
        head = _CUBE_RUN_A.sub("aa", head)
    if kb >= 0 or rest:
        head = _CUBE_RUN_B.sub("bb", head)
    parts.append(head)
    parts.reverse()
    return "".join(parts)


# Maximal runs of consecutive a-doubles (b-doubles), each pair an aXa (bXb)
# site; complete_reduction collapses each run to its first double
_RUN_A = re.compile(r"aa(?:b(?:ab)*+aa)++")
_RUN_B = re.compile(r"bb(?:a(?:ba)*+bb)++")
# A run's first site (the group) whose first double follows the other letter's
# double, or starts within two letters of the word's start. The in-word scans
# stay apart so that each keeps its literal prefix.
_OPEN_A = re.compile(r"bb(aab(?:ab)*+aa)")
_OPEN_B = re.compile(r"aa(bba(?:ba)*+bb)")
_OPEN_START = re.compile(r"b?(aab(?:ab)*+aa)|a?(bba(?:ba)*+bb)")


def _open_site(w: str):
    """The match of the first site of w open on the left, or None; the
    site's span is that of the match's last group."""
    return _OPEN_START.match(w) or _OPEN_A.search(w) or _OPEN_B.search(w)


def is_ab_whole(w: str) -> bool:
    """True when every aXa / bXb occurrence is wrapped ab...ba / ba...ab."""
    return not (_open_site(w) or _open_site(w[::-1]))


def complete_reduction(w: str) -> str:
    """Fixpoint of the aXa/bXb collapse on a cube-collapsed word.

    There a site is a pair of consecutive doubles of one letter, and
    collapsing it keeps the first double and makes no cube. So the fixpoint
    (order-independent, property-tested) keeps the first double of each
    maximal run of same-letter doubles: one substitution per letter. Its
    consecutive doubles differ in letter, so sit at even distance, and it
    is uniform. Uniform words are fixpoints.
    """
    return _RUN_B.sub("bb", _RUN_A.sub("aa", w))


class Tail(NamedTuple):
    """One boundary pattern occurrence; span is 1-indexed inclusive."""

    side: str  # "left" | "right"
    letter_class: str  # "A" | "B"
    family: str  # "nonuniform" | "nonreducible"
    start: int
    end: int


NON_UNIFORM = "nonuniform"
NON_REDUCIBLE = "nonreducible"

# Left-side patterns, one per family, A branch first; the right-side ones are
# their reversals and the B ones their negations. An A pattern starts with a
# and a B one with b, so a side's first letter names its class. Double
# positions fix the block counts, so each pattern has one match length at most.
# The non-reducible one is (aba)^i (ab)^j aa, i >= 1, j >= 2. (aba)^i holds no
# abab, so (ab)^j starts at the word's first abab: one find, one slice compare
# and one possessive match, where the regex (?:aba)+ would backtrack.
_NON_REDUCIBLE_REST = re.compile(r"(?:ab){2,}+aa|(?:ba){2,}+bb")


def _non_reducible_match(w: str) -> re.Match | None:
    k = w.find(w[:2] * 2)  # abab or baba when w starts ab or ba
    if k >= 3 and k % 3 == 0 and w[:k] == (w[:2] + w[:1]) * (k // 3):
        return _NON_REDUCIBLE_REST.match(w, k)
    return None


_LEFT = {
    NON_UNIFORM: re.compile(r"(?:aab){2,}+ba|(?:bba){2,}+ab").match,
    NON_REDUCIBLE: _non_reducible_match,
}


# How a right-side tail of each family ends: the first letters of its left
# patterns, reversed. Only a word that ends so is reversed and matched.
_RIGHT_END = {NON_UNIFORM: ("baabaa", "abbabb"), NON_REDUCIBLE: ("aba", "bab")}


def _detect(w: str, family: str) -> list[Tail]:
    out = []
    m = _LEFT[family](w)
    if m:
        out.append(Tail("left", w[0].upper(), family, 1, m.end()))
    if w.endswith(_RIGHT_END[family]) and (m := _LEFT[family](w[::-1])):
        out.append(Tail("right", w[-1].upper(), family, len(w) - m.end() + 1, len(w)))
    return out


def detect_non_uniform_tails(w: str) -> list[Tail]:
    """Boundary patterns that make the word non-uniform; at most one per side."""
    return _detect(w, NON_UNIFORM)


def detect_non_reducible_tails(w: str) -> list[Tail]:
    """Boundary patterns whose collapse would change the equivalence class."""
    return _detect(w, NON_REDUCIBLE)


def tail_reduce(w: str) -> tuple[list[Tail], int, int]:
    """The non-uniform tails of w, and the bounds w[start:end] left once each
    is cut to its 7 letters next to the rest.

    Both sides come from one detection on w; the two trims commute.
    """
    tails = detect_non_uniform_tails(w)
    start = next((t.end - 7 for t in tails if t.side == "left"), 0)
    end = next((t.start + 6 for t in tails if t.side == "right"), len(w))
    return tails, start, end
