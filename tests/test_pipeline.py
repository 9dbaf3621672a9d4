"""Descent, rebuild, and the canonical-form entry points."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aofcanon import pipeline, words
from aofcanon.errors import EmptyInput, WordError
from aofcanon.pipeline import Verdict

import _oracles as slow

ab_words = st.text(alphabet="ab", min_size=1, max_size=128)


def test_ancestor_frozen_trace():
    s = pipeline.ancestor("aabaabbabb", trace=True)
    assert s.anc == "b"
    assert s.ell == 3
    assert s.L == ("a", "", "")
    assert s.R == ("b", "", "")
    assert s.h == ("a", "", "")
    assert s.t == ("b", "b", "")
    assert s.series == ("aabaabbabb", "bab", "b")


def test_ancestor_without_trace_has_no_series():
    assert pipeline.ancestor("aabaabbabb").series is None


def test_ancestor_short_words():
    for w in ("a", "b", "aa", "ab", "ba", "bb"):
        s = pipeline.ancestor(w)
        assert s.anc == w and s.ell == 1


def test_ancestor_stops_on_special_class():
    s = pipeline.ancestor("aabaabbaabaa")
    assert s.anc == "aabaabbaabaa" and s.ell == 1


def test_ancestor_stops_on_blocked_site():
    # site at the left boundary cannot be wrapped, so the recursion keeps
    # the word as its own stop
    s = pipeline.ancestor("aabaabb")
    assert s.anc == "aabaabb" and s.ell == 1


def test_ancestor_errors():
    with pytest.raises(EmptyInput):
        pipeline.ancestor("")
    with pytest.raises(WordError):
        pipeline.ancestor("abc")


def test_ancestor_halving_check_survives_optimisation(monkeypatch):
    # an explicit error, not an assert, so it also holds under python -O
    monkeypatch.setattr(words, "phi_inverse", lambda w: w)
    with pytest.raises(RuntimeError, match="over half of 32"):
        pipeline.ancestor(slow.thue_morse(32))


@given(ab_words)
@settings(max_examples=300)
def test_ancestor_halves_each_round(w):
    s = pipeline.ancestor(w, trace=True)
    assert s.series is not None and len(s.series) == s.ell
    for prev, nxt in zip(s.series, s.series[1:]):
        assert 2 * len(nxt) <= len(prev)


@pytest.mark.parametrize(
    ("w", "expected"),
    [
        ("bababb", None),
        ("aabbaabbaabb", "aabbaabb"),
        ("aabbaabb", "aabbaabb"),
        ("abab", "abab"),
        ("ababab", "abab"),
        ("a", "a"),
        ("aaa", "aa"),
        ("bbb", "bb"),
        ("aabaa", "aabaa"),
        ("aabaabb", "aabaabb"),
        ("aabaabab", None),
    ],
)
def test_eqaof_frozen(w, expected):
    assert pipeline.eqaof(w) == expected


def test_eqaof_rejects_whole_no_aof_family():
    # (ab)^k ababaa: the rebuilt candidate always ends in the overlap
    # ababa, so no member of the class is almost overlap-free
    for k in range(6):
        assert pipeline.eqaof("ab" * k + "ababaa") is None


@given(ab_words)
@settings(max_examples=400)
def test_eqaof_output_is_almost_overlap_free(w):
    v = pipeline.eqaof(w)
    if v is not None:
        assert words.is_almost_overlap_free(v)
        assert pipeline.eqaof(v) == v


@given(ab_words)
@settings(max_examples=300)
def test_eqaof_equivariance(w):
    v = pipeline.eqaof(w)
    nv = pipeline.eqaof(words.negate(w))
    rv = pipeline.eqaof(words.reverse(w))
    assert nv == (None if v is None else words.negate(v))
    assert rv == (None if v is None else words.reverse(v))


def test_eqaof_fixes_enumerated_aof_words():
    for w in slow.words_up_to(11):
        if not slow.aof_slow(w):
            continue
        expected = {"aaa": "aa", "bbb": "bb"}.get(w, w)
        assert pipeline.eqaof(w) == expected, w


@pytest.mark.parametrize(
    ("u", "v", "verdict"),
    [
        ("aabbaabb", "aabbaabbaabb", Verdict.EQUIVALENT),
        ("abab", "ababab", Verdict.EQUIVALENT),
        ("ababaa", "abababaa", Verdict.UNKNOWN),
        ("a", "b", Verdict.NOT_EQUIVALENT),
        ("bababb", "abab", Verdict.NOT_EQUIVALENT),
        ("ab", "ba", Verdict.NOT_EQUIVALENT),
    ],
)
def test_decide_equiv_frozen(u, v, verdict):
    assert pipeline.decide_equiv(u, v) == verdict
    assert pipeline.decide_equiv(v, u) == verdict


def test_decide_equiv_reflexive_on_random_words():
    rng = random.Random(12)
    for _ in range(100):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(1, 60)))
        got = pipeline.decide_equiv(w, w)
        assert got in (Verdict.EQUIVALENT, Verdict.UNKNOWN)
        if pipeline.eqaof(w) is not None:
            assert got == Verdict.EQUIVALENT


def test_normalize_cube_collapse_round():
    # the rebuild of aabbaabbaabb passes through an exact letter-tripling
    # and must collapse it
    s = pipeline.ancestor("aabbaabbaabb")
    assert s.anc == "aa"
    assert pipeline.normalize("aa", s) == "aabbaabb"


def test_normalize_identity_when_single_round():
    s = pipeline.ancestor("aabaa")
    assert s.ell == 1
    assert pipeline.normalize("aabaa", s) == "aabaa"


def test_normalize_rejects_bad_stop_words():
    s = pipeline.ancestor("abaabbabaabbab" * 4)
    with pytest.raises(EmptyInput):
        pipeline.normalize("", s)
    with pytest.raises(WordError):
        pipeline.normalize("xyz", s)
