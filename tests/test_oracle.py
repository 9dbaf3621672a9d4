"""Bounded rewriting closures and the exhaustive enumerator."""
from __future__ import annotations

import pytest

from aofcanon import oracle, overlap, words
from aofcanon.errors import EmptyInput, WordError
from aofcanon.oracle import OracleAnswer

import _oracles as slow


def _decode(x: int) -> str:
    """The word read as x by overlap._as_int."""
    return bin(x)[3:].translate(str.maketrans("01", "ab"))


def _step(w: str, length_bound: int) -> tuple[set[str], bool]:
    """oracle._neighbours on the word w, its rewrites decoded."""
    out, clipped = oracle._neighbours(overlap._as_int(w), len(w), length_bound)
    return {_decode(x) for x in out}, clipped


def _pi(w: str, length_bound: int) -> set[str]:
    """The one-step rewrites of w under YY <-> YYY within the length bound."""
    return _step(w, length_bound)[0]


def test_pi_neighbours_frozen():
    assert _pi("aa", 6) == {"aaa"}
    assert _pi("aaa", 6) == {"aa", "aaaa"}
    assert _pi("abab", 8) == {"ababab"}
    assert _pi("ab", 8) == set()


def test_pi_neighbours_respects_bound():
    # the only expansion of abab would reach length 6
    assert _step("abab", 5) == (set(), True)


def test_pi_neighbours_are_symmetric():
    # w reachable from v in one step means v reachable from w in one step,
    # given enough room
    for w in slow.words_up_to(6):
        for v in _pi(w, 9):
            assert w in _pi(v, 9), (w, v)


def test_neighbours_match_slow_exhaustive():
    # the mask scan builds one word per run of squares (cubes); the slow
    # reference rewrites at every position, so equal sets show no run is lost
    for w in slow.words_up_to(13):
        n = len(w)
        for bound in (n, n + 1, n + 3, n + 6):
            assert _step(w, bound) == slow.neighbours_slow(w, bound), (w, bound)


def test_closure_frozen_small():
    res = oracle.closure("ab", 6)
    assert res.members == ("ab",)
    assert res.exhausted

    res = oracle.closure("aa", 6)
    assert res.members == ("aa", "aaa", "aaaa", "aaaaa", "aaaaaa")
    assert not res.exhausted  # expansions of a^6 were clipped

    res = oracle.closure("abab", 12)
    assert res.members == tuple("ab" * k for k in range(2, 7))
    assert not res.exhausted


def test_closure_members_sorted_by_length_then_lex():
    res = oracle.closure("aabb", 10)
    assert list(res.members) == sorted(res.members, key=lambda w: (len(w), w))
    assert res.seed in res.members


def test_closure_stop_on_short_circuits():
    res = oracle.closure("abab", 20, stop_on="abababab")
    assert "abababab" in res.members
    assert not res.exhausted


def test_words_as_integers_round_trip_in_length_lex_order():
    # the closure's heap and its member order rest on both facts
    ws = list(slow.words_up_to(12))
    xs = [overlap._as_int(w) for w in ws]
    assert [_decode(x) for x in xs] == ws
    assert [_decode(x) for x in sorted(xs)] == sorted(ws, key=lambda w: (len(w), w))


def test_closure_matches_slow_partial_closures_exhaustive():
    # step-bounded and stop_on results are partial, so their members depend
    # on the expansion order; the reference expands strings in (length, lex)
    # order. The stop word, the seed with its first letter doubled, is in
    # the closure for some seeds and not for others.
    for w in slow.words_up_to(9):
        bound = len(w) + 3
        for steps in (1, 2, 5, 1_000_000):
            got = oracle.closure(w, bound, steps)
            assert tuple(got) == slow.closure_slow(w, bound, steps), (w, steps)
        got = oracle.closure(w, bound, stop_on=w[0] + w)
        assert tuple(got) == slow.closure_slow(w, bound, stop_on=w[0] + w), w


def test_closure_step_budget():
    res = oracle.closure("aa", 30, step_bound=2)
    assert not res.exhausted
    assert res.step_bound == 2


def test_closure_rejects_bad_input():
    with pytest.raises(EmptyInput):
        oracle.closure("", 5)
    with pytest.raises(ValueError):
        oracle.closure("aaaa", 3)
    with pytest.raises(WordError):
        oracle.closure("ab", 5, stop_on="xy")


def test_closure_equivariance_small():
    for w in ("ab", "aa", "abab", "aabb", "babbab"):
        bound = len(w) + 6
        base = oracle.closure(w, bound).members
        neg = oracle.closure(words.negate(w), bound).members
        rev = oracle.closure(w[::-1], bound).members
        assert tuple(sorted((words.negate(m) for m in base), key=lambda x: (len(x), x))) == neg
        assert tuple(sorted((m[::-1] for m in base), key=lambda x: (len(x), x))) == rev


def _junctions(w: str) -> tuple[str, str, frozenset[str]]:
    return w[0], w[-1], frozenset(w[i : i + 2] for i in range(len(w) - 1))


def test_closure_keeps_the_junction_invariant():
    # a rewrite xYYz <-> xYYYz keeps the letters on both sides of every
    # junction: the first letter, the last letter and the set of 2-letter
    # factors are the same for every member of a class
    for w in slow.words_up_to(10):
        inv = _junctions(w)
        for m in oracle.closure(w, len(w) + 6).members:
            assert _junctions(m) == inv, (w, m)


def test_oracle_equiv():
    assert oracle.oracle_equiv("abab", "ababab", 12) == OracleAnswer.YES
    assert oracle.oracle_equiv("abab", "abab", 12) == OracleAnswer.YES
    assert oracle.oracle_equiv("aabbaabb", "aabbaabbaabb", 16) == OracleAnswer.YES
    assert oracle.oracle_equiv("ab", "ba", 10) == OracleAnswer.UNKNOWN
    # genuinely different classes stay unknown at any bound we can afford
    assert oracle.oracle_equiv("aabaa", "aa", 18) == OracleAnswer.UNKNOWN


def test_oracle_equiv_validates_equal_words():
    # equal inputs take a shortcut, which must not skip the checks closure makes
    with pytest.raises(EmptyInput):
        oracle.oracle_equiv("", "", 5)
    with pytest.raises(WordError):
        oracle.oracle_equiv("xyz", "xyz", 5)
    with pytest.raises(WordError):
        oracle.oracle_equiv("ab", "abc", 5)


def test_oracle_equiv_checks_each_word_once(monkeypatch):
    checked = []
    original = words.check_word
    monkeypatch.setattr(words, "check_word", lambda w: checked.append(w) or original(w))
    oracle.oracle_equiv("aab", "aabb", 8)
    assert checked.count("aab") == 1
    # one closure, from u: v is checked once, and never seeds a closure
    assert checked.count("aabb") == 1


def test_enumerate_aof_matches_slow():
    got = oracle.enumerate_aof(10)
    expected = [w for w in slow.words_up_to(10) if slow.aof_slow(w)]
    # same sets, and the enumerator promises (length, lex) order
    assert sorted(got) == sorted(expected)
    assert got == sorted(got, key=lambda w: (len(w), w))
    assert "" not in got
    assert "aaa" in got and "bbb" in got


def test_enumerate_aof_prefix_closed():
    for w in oracle.enumerate_aof(9):
        if len(w) > 1:
            assert words.is_almost_overlap_free(w[:-1])
