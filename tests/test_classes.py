"""The thirty exceptional class recognizers."""
from __future__ import annotations

import re

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


def test_acceptors_pairwise_disjoint():
    # match_S reports the first of its alternatives that matches, so it is
    # only right while the thirty languages are disjoint; check every
    # cube-collapsed word up to length 18 against the per-pattern scan
    table = classes.pattern_table()
    for w in slow.words_up_to(18):
        if "aaa" in w or "bbb" in w:
            continue
        hits = [p.representative for p in table if p.accepts(w)]
        assert len(hits) <= 1, (w, hits)
        assert classes.match_S(w) == (hits[0] if hits else None), w
        assert classes.in_special_class(w) == (table[8].accepts(w) or table[17].accepts(w)), w


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
