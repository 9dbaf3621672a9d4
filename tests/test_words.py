"""Word predicates and morphism plumbing."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aofcanon import overlap, words
from aofcanon.errors import WordError

import _oracles as slow
from test_overlap_internals import brute_has_overlap

ab_words = st.text(alphabet="ab", max_size=200)


@pytest.mark.parametrize(
    "bad", ["", "abc", "A", "a b", "ab\n", "1", "aé", "ａｂ", "á", "\udcff", "ab\x00"]
)
def test_check_word_rejects(bad):
    with pytest.raises(WordError):
        words.check_word(bad)


@given(st.text())
def test_is_word_matches_alphabet_set(w):
    assert overlap.is_word(w) == (set(w) <= {"a", "b"})


def test_is_word_reads_every_slice_of_a_long_word():
    # a word above 64K letters is checked one 64K slice at a time
    w = "ab" * (3 * 2**15 + 1)
    assert overlap.is_word(w)
    for i in (0, 2**16 - 1, 2**16, 2**17 + 1, len(w) - 1):
        for bad in ("c", "\u00e9", "\udcff"):
            assert not overlap.is_word(w[:i] + bad + w[i + 1 :]), (i, bad)


@pytest.mark.parametrize(
    "bad", ["ab ", "a_b", "000", "abab\n", "\tab", "aé", "ａｂ", "\udcff"]
)
@pytest.mark.parametrize(
    "predicate",
    [
        words.is_overlap_free,
        words.is_almost_overlap_free,
        brute_has_overlap,
    ],
)
def test_overlap_predicates_reject_non_words(predicate, bad):
    # the scan reads the word as a base-2 integer, and int() also takes
    # 0, 1, _ and surrounding whitespace; those must not pass as letters
    with pytest.raises(WordError):
        predicate(bad)


def test_overlap_predicates_reject_long_non_words():
    # above overlap._FLOOR letters the check desubstitutes, reading only some
    # letters, so it checks every letter first
    tm = slow.thue_morse(3 * overlap._FLOOR)
    mid = len(tm) // 2
    for bad in ("c" + tm, tm[:mid] + "c" + tm[mid:], tm + "\u00e9", tm.replace("a", "0")):
        for predicate in (words.is_overlap_free, words.is_almost_overlap_free):
            with pytest.raises(WordError):
                predicate(bad)


@given(ab_words)
def test_negate_reverse_involutions(w):
    assert words.negate(words.negate(w)) == w
    assert words.negate(w[::-1]) == words.negate(w)[::-1]


@given(ab_words)
def test_phi_roundtrip(w):
    img = words.phi(w)
    assert len(img) == 2 * len(w)
    assert words.phi_inverse(img) == w


@given(ab_words)
def test_phi_commutes_with_negation(w):
    assert words.phi(words.negate(w)) == words.negate(words.phi(w))


def test_phi_interleaves_the_word_and_its_negation():
    # phi(w) reads w at its even positions and negate(w) at its odd ones
    for w in itertools.chain(["", slow.thue_morse(1 << 20)], slow.words_up_to(12)):
        img = words.phi(w)
        assert img[0::2] == w and img[1::2] == words.negate(w), w[:32]


def test_phi_image_matches_slow():
    # phi_inverse pulls back exactly the images and refuses every other word
    for w in slow.words_up_to(12):
        if slow.phi_image_slow(w):
            assert words.phi_inverse(w) == w[::2], w
        else:
            with pytest.raises(WordError):
                words.phi_inverse(w)


def test_phi_iterates_to_thue_morse():
    # thue_morse(n) is a prefix of thue_morse(m) for n <= m by definition, so
    # matching every iterate up to 4096 letters covers every shorter prefix
    w = "a"
    while len(w) <= 4096:
        assert w == slow.thue_morse(len(w)), len(w)
        w = words.phi(w)


@pytest.mark.parametrize("w", ["a", "aa", "abb", "aabb"])
def test_phi_inverse_rejects(w):
    with pytest.raises(WordError, match="not a morphism image"):
        words.phi_inverse(w)


def test_overlap_free_matches_slow_exhaustive():
    for w in slow.words_up_to(12):
        assert words.is_overlap_free(w) == (not slow.has_overlap_slow(w)), w


def test_aof_matches_slow_exhaustive():
    for w in slow.words_up_to(14):
        assert words.is_almost_overlap_free(w) == slow.aof_slow(w), w


@given(st.text(alphabet="ab", min_size=1, max_size=64))
@settings(max_examples=200)
def test_aof_matches_slow_random(w):
    assert words.is_almost_overlap_free(w) == slow.aof_slow(w)


def test_aof_edge_cases():
    # the two letter cubes are almost overlap-free even though they are
    # overlaps themselves
    assert words.is_almost_overlap_free("aaa")
    assert words.is_almost_overlap_free("bbb")
    assert not words.is_overlap_free("aaa")
    assert not words.is_almost_overlap_free("aaaa")
    assert words.is_almost_overlap_free("")


def test_aof_at_the_proper_factor_bound():
    # y+y+y[0] is an overlap of period p but only the whole word is one, so it
    # is almost overlap-free; one more letter at either end makes the overlap
    # a proper factor. These are the periods the single scan tests.
    tm = slow.thue_morse(64)
    for p in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64):
        y = tm[:p]
        w = y + y + y[0]
        assert words.is_almost_overlap_free(w) and slow.aof_slow(w), p
        for v in ("a" + w, "b" + w, w + "a", w + "b"):
            assert not words.is_almost_overlap_free(v) and not slow.aof_slow(v), (p, v)
