"""The thirty exceptional classes with regular cube-collapsed member sets.

Every equivalence class whose ancestor recursion can stop early falls into
one of these: nine aabaa-family languages and their negations, six
three-block languages, and six short singletons. Each entry carries the
canonical representative, a star expression for display, and a regular
expression for the cube-collapsed members of the class. The languages are
pairwise disjoint (tested), so one alternation of all thirty, one capturing
group per entry, names the class of a stop word in a single match.

Every repeat is possessive (Python 3.11). What follows a repeat is a tail
shorter than its block or starts with the letter the block does not, so a
block given back never lets the rest match. A greedy repeat gave a long
body back one block at a time in every branch that failed after reading it,
which made the scan superlinear on such stop words.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from . import words


class ClassPattern(NamedTuple):
    representative: str
    pattern: str  # star expression for display
    regex: str  # source for the cube-collapsed members; accepts compiles it via re's cache

    def accepts(self, w: str) -> bool:
        return re.fullmatch(self.regex, w) is not None


# (representative, display pattern, regex source). The negated entries
# exchange a and b in all three strings; the sources hold letters and
# non-capturing syntax only, so the exchange touches nothing else.
_A_FAMILY = [
    ("aabaa", "aabaa", "aabaa"),
    ("aabaab", "(aab)^2(aab)*", r"(?:aab){2,}+"),
    ("baabaa", "(baa)*(baa)^2", r"(?:baa){2,}+"),
    ("baabaab", "(baa)^2(baa)*b", r"(?:baa){2,}+b"),
    ("aabaabb", "(aab)^2(aab)*b", r"(?:aab){2,}+b"),
    ("bbaabaa", "b(baa)*(baa)^2", r"b(?:baa){2,}+"),
    ("aabaaba", "(aab)^2(aab)*a", r"(?:aab){2,}+a"),
    ("abaabaa", "a(baa)*(baa)^2", r"a(?:baa){2,}+"),
    # the display form read over the prefix code {aab, b}: at least two
    # blocks, then one or more b-separated nonempty groups of blocks
    (
        "aabaabbaabaa",
        "(aab)^2(aab)*(b(aab)*aab)*(baa)*(baa)^2",
        r"(?:aab){2,}+(?:b(?:aab)++)++aa",
    ),
]

_THREE_BLOCK = [
    ("abaabaab", "(aba)*(aba)^2ab", r"(?:aba){2,}+ab"),
    ("abbabbab", "(abb)*(abb)^2ab", r"(?:abb){2,}+ab"),
    ("baabaaba", "(baa)*(baa)^2ba", r"(?:baa){2,}+ba"),
    ("babbabba", "(bab)*(bab)^2ba", r"(?:bab){2,}+ba"),
    ("bbabbabb", "(bba)*(bba)^2bb", r"(?:bba){2,}+bb"),
    ("aabaabaa", "(aab)*(aab)^2aa", r"(?:aab){2,}+aa"),
]

_SINGLETONS = [(s, s, s) for s in ("a", "b", "aa", "bb", "ab", "ba")]

_ENTRIES = (
    _A_FAMILY
    + [tuple(map(words.negate, e)) for e in _A_FAMILY]
    + _THREE_BLOCK
    + _SINGLETONS
)

_TABLE = tuple(ClassPattern(*e) for e in _ENTRIES)
_ANY = re.compile("|".join(f"({rx})" for _, _, rx in _ENTRIES))
_SPECIAL = re.compile(f"{_TABLE[8].regex}|{_TABLE[17].regex}")


def pattern_table() -> tuple[ClassPattern, ...]:
    """All thirty class patterns in their fixed order."""
    return _TABLE


def match_S(x: str) -> str | None:
    """Representative of the exceptional class containing x, else None.

    x must be cube-collapsed. The group that matched names the class.
    """
    m = _ANY.fullmatch(x)
    return _TABLE[m.lastindex - 1].representative if m else None


def in_special_class(x: str) -> bool:
    """Membership in the one class family that must stop the recursion early."""
    return _SPECIAL.fullmatch(x) is not None
