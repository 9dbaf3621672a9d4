"""The thirty exceptional class recognizers."""
from __future__ import annotations

import random
import re
from re import _constants as sre, _parser as sre_parse

import pytest

from aofcanon import classes, reductions, words

import _oracles as slow


def test_table_shape():
    table = classes.pattern_table()
    assert len(table) == 30
    reps = [p.representative for p in table]
    assert len(set(reps)) == 30
    # fixed order: nine a-side entries, their negations, six three-block
    # languages, six singletons
    assert reps[0] == "aabaa"
    assert reps[8] == "aabaabbaabaa"
    assert reps[9:18] == [words.negate(r) for r in reps[:9]]
    assert reps[18] == "abaabaab"
    assert reps[24:] == ["a", "b", "aa", "bb", "ab", "ba"]


def test_representatives_accepted_and_reduced():
    for p in classes.pattern_table():
        assert reductions.r1(p.representative) == p.representative
        assert p.accepts(p.representative), p.representative


_REPEATS = (sre.MAX_REPEAT, sre.MIN_REPEAT, sre.POSSESSIVE_REPEAT)


def _repeats(tree):
    """The opcode of every repeat in a parsed regex, nested ones included."""
    for op, av in tree:
        if op in _REPEATS:
            yield op
            yield from _repeats(av[2])
        elif op is sre.SUBPATTERN:
            yield from _repeats(av[3])
        elif op is sre.BRANCH:
            for branch in av[1]:
                yield from _repeats(branch)


def _greedy(src: str) -> str:
    """The same source with every repeat's possessive mark taken out."""
    return src.replace("}+", "}").replace("++", "+")


def test_every_class_repeat_is_possessive():
    # a greedy repeat gives a long body back one block at a time in every
    # branch that fails after reading it
    ops = [op for p in classes.pattern_table() for op in _repeats(sre_parse.parse(p.regex))]
    assert len(ops) == 26
    assert set(ops) == {sre.POSSESSIVE_REPEAT}
    for p in classes.pattern_table():
        assert sre.POSSESSIVE_REPEAT not in _repeats(sre_parse.parse(_greedy(p.regex))), p


_TABLE = classes.pattern_table()
_GREEDY_ANY = re.compile("|".join(f"({_greedy(p.regex)})" for p in _TABLE))
_GREEDY_SPECIAL = re.compile(f"{_greedy(_TABLE[8].regex)}|{_greedy(_TABLE[17].regex)}")


def _check_against_greedy(w: str) -> bool:
    """match_S and in_special_class agree with the greedy table on w; w is a member."""
    m = _GREEDY_ANY.fullmatch(w)
    rep = _TABLE[m.lastindex - 1].representative if m else None
    assert classes.match_S(w) == rep, w
    assert classes.in_special_class(w) == (_GREEDY_SPECIAL.fullmatch(w) is not None), w
    return rep is not None


def test_acceptors_pairwise_disjoint():
    # match_S reports the first of its alternatives that matches, so it is
    # only right while the thirty languages are disjoint; check every
    # cube-collapsed word up to length 18 against the per-pattern scan, and
    # against the greedy table
    table = classes.pattern_table()
    members = 0
    for w in slow.words_up_to(18):
        if "aaa" in w or "bbb" in w:
            continue
        hits = [p.representative for p in table if p.accepts(w)]
        assert len(hits) <= 1, (w, hits)
        assert classes.match_S(w) == (hits[0] if hits else None), w
        assert classes.in_special_class(w) == (table[8].accepts(w) or table[17].accepts(w)), w
        members += _check_against_greedy(w)
    assert members == 106


@pytest.mark.parametrize(
    ("x", "rep"),
    [
        ("b", "b"),
        ("aa", "aa"),
        ("ba", "ba"),
        ("aabaa", "aabaa"),
        ("aabaabaab", "aabaab"),
        ("bbabb", "bbabb"),
        ("aabaabaa", "aabaabaa"),
        ("babbabba", "babbabba"),
        ("aabaabbaabaa", "aabaabbaabaa"),
        ("aabaabaabbaabbaabaabaa", "aabaabbaabaa"),
        ("ababab", None),
        ("aabb", None),
        ("aabaabb", "aabaabb"),
    ],
)
def test_match_S(x, rep):
    assert classes.match_S(x) == rep


_SPECIAL_RX = re.compile(r"(?:aab){2,}(?:b(?:aab)+)*(?:baa){2,}")


def test_special_acceptor_matches_star_expression():
    # independent reading of the display pattern
    # (aab)^2(aab)*(b(aab)*aab)*(baa)*(baa)^2
    for w in slow.words_up_to(16):
        assert (_SPECIAL_RX.fullmatch(w) is not None) == classes.pattern_table()[8].accepts(
            w
        ), w


def test_in_special_class():
    assert classes.in_special_class("aabaabbaabaa")
    assert classes.in_special_class("bbabbaabbabb")
    assert classes.in_special_class("aabaabaabbaabbaabaabaa")
    assert not classes.in_special_class("aabaab")
    assert not classes.in_special_class("ab")


def test_negation_closure_of_table():
    # the table as a whole is negation-closed; check acceptors agree
    table = classes.pattern_table()
    by_rep = {p.representative: p for p in table}
    for w in slow.words_up_to(10):
        if slow.r1_slow(w) != w:
            continue
        for p in table:
            if p.accepts(w):
                assert by_rep[words.negate(p.representative)].accepts(words.negate(w))


_BLOCKS = ("aab", "aba", "baa", "abb", "bab", "bba")
_SHORT = ("", "a", "b", "aa", "ab", "ba", "bb")


def test_possessive_table_matches_greedy_on_long_block_words():
    # 1-4 groups of 1-120 blocks, most of one block, joined by at most one
    # letter, between short fringes: class bodies that end as a class does
    # or one letter off it
    rng = random.Random(32)
    checked = hits = special = 0
    for _ in range(12_000):
        block = rng.choice(_BLOCKS)
        parts = [rng.choice(_SHORT)]
        for g in range(rng.randint(1, 4)):
            if g:
                parts.append(rng.choice(("", "a", "b")))
            parts.append((block if rng.random() < 0.75 else rng.choice(_BLOCKS)) * rng.randint(1, 120))
        parts.append(rng.choice(_SHORT))
        w = "".join(parts)
        if "aaa" in w or "bbb" in w:
            continue
        checked += 1
        hits += _check_against_greedy(w)
        special += classes.in_special_class(w)
    # 4,035 words, 800 members, 19 of them special, at this seed
    assert checked > 4000 and hits > 750 and special > 15
