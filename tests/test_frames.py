"""Fringe splitting of uniform words."""
from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from aofcanon import frames, reductions, words

import _oracles as slow


def test_frame_frozen_examples():
    # phi(bab) = baabba
    assert frames.frame("abaabbab") == ("a", "bab", "b")

    # no double at all: the block pairs start at the first letter
    assert frames.frame("ababa") == ("", "aa", "a")

    # phi(ababa) = abbaabbaab
    assert frames.frame("aabbaabbaabb") == ("a", "ababa", "b")


def test_frame_empty_and_tiny():
    assert frames.frame("") == ("", "", "")
    assert frames.frame("a") == ("", "", "a")
    assert frames.frame("ab") == ("", "a", "")
    assert frames.frame("aa") == ("a", "", "a")


def test_frame_rejects_non_uniform():
    assert frames.frame("aabaabb") is None


def test_frame_matches_slow_exhaustive():
    for w in slow.words_up_to(16, min_len=0):
        if not slow.uniform_slow(w):
            assert frames.frame(w) is None, w
            continue
        h, x, t = frames.frame(w)
        assert h + words.phi(x) + t == w, w


def test_frame_long_words_at_both_offsets_and_parities():
    # the pre-image is a prefix of the even or the odd letters, whichever
    # start at the offset; in the last two words only the final pair of
    # letters is a double at the wrong parity, so frame reads to the end
    t = slow.thue_morse(2**15)
    c = words.negate(t[0])
    cases = [
        (t, ""),
        (t[:-1], ""),
        (c + t, c),
        (c + t[:-1], c),
        (t[:-1] + t[-2], None),
        (c + t[:-1] + t[-2], None),
    ]
    for u, h in cases:
        assert slow.uniform_slow(u) == (h is not None), len(u)
        f = frames.frame(u)
        if h is None:
            assert f is None, len(u)
            continue
        assert f[0] == h and f[0] + words.phi(f[1]) + f[2] == u, len(u)


def test_frame_block_edges_at_both_offsets_and_parities():
    # frame compares a block of pairs at a time; each word's halves span
    # four blocks, and making one block's first or last pair a double at the
    # word's own offset, the only such pair, makes the word not uniform
    b = frames._BLOCK
    t = slow.thue_morse(8 * b)
    c = words.negate(t[0])
    for h in "", c:
        for u in h + t, h + t[:-1]:
            assert slow.uniform_slow(u), (h, len(u))
            f = frames.frame(u)
            assert f[0] == h and h + words.phi(f[1]) + f[2] == u, (h, len(u))
            last = (len(u) - len(h)) // 2 - 1
            for i in 0, b - 1, b, 2 * b - 1, 2 * b, 3 * b - 1, 3 * b, last:
                # the pair (u[|h|+2i], u[|h|+2i+1]) becomes a double
                k = len(h) + 2 * i + 1
                v = u[:k] + u[k - 1] + u[k + 1 :]
                assert not slow.uniform_slow(v), (h, len(u), i)
                assert frames.frame(v) is None, (h, len(u), i)


def test_frame_rejects_a_long_random_word():
    w = "".join(random.Random(20).choices("ab", k=1 << 20))
    assert not slow.uniform_slow(w)
    assert frames.frame(w) is None


@given(st.text(alphabet="ab", max_size=400))
@settings(max_examples=300)
def test_frame_matches_uniform_slow_random(w):
    assert (frames.frame(w) is not None) == slow.uniform_slow(w)


@given(st.text(alphabet="ab", max_size=150))
@settings(max_examples=300)
def test_frame_reassembly(w):
    u = reductions.complete_reduction(reductions.r1(w))
    h, x, t = frames.frame(u)
    assert h + words.phi(x) + t == u
    assert len(h) <= 1 and len(t) <= 1


@given(st.text(alphabet="ab", min_size=1, max_size=80))
def test_frame_of_exact_images(x):
    # an image splits off no fringe and pulls back to its own pre-image:
    # only a double at an even position could shift it, and images have none
    assert frames.frame(words.phi(x)) == ("", x, "")


@given(st.text(alphabet="ab", max_size=100))
@settings(max_examples=200)
def test_xi_wraps_with_negated_fringe(w):
    # the negated fringe letters complete U's fringe into blocks of its core
    u = reductions.complete_reduction(reductions.r1(w))
    h, _, t = frames.frame(u)
    assert frames.frame(words.negate(h) + u + words.negate(t)) is not None
