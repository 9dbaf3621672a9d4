"""Fringe splitting of uniform words."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aofcanon import frames, reductions, words
from aofcanon.errors import NotUniform

import _oracles as slow


def test_frame_frozen_examples():
    f = frames.frame("abaabbab")
    assert (f.h, f.core, f.t) == ("a", "baabba", "b")

    # no double at all: the core starts at the first letter
    f = frames.frame("ababa")
    assert (f.h, f.core, f.t) == ("", "abab", "a")

    f = frames.frame("aabbaabbaabb")
    assert (f.h, f.core, f.t) == ("a", "abbaabbaab", "b")


def test_frame_empty_and_tiny():
    assert frames.frame("") == frames.Frame("", "", "")
    assert frames.frame("a") == frames.Frame("", "", "a")
    assert frames.frame("ab") == frames.Frame("", "ab", "")
    assert frames.frame("aa") == frames.Frame("a", "", "a")


def test_frame_rejects_non_uniform():
    with pytest.raises(NotUniform):
        frames.frame("aabaabb")


def test_frame_core_check_survives_optimisation(monkeypatch):
    # the core's image test is the uniformity check: an explicit raise, not
    # an assert, so it also holds under python -O
    monkeypatch.setattr(words, "is_phi_image", lambda w: False)
    with pytest.raises(NotUniform, match="'abba'"):
        frames.frame("abba")


def test_frame_matches_slow_exhaustive():
    for w in slow.words_up_to(16, min_len=0):
        if not slow.uniform_slow(w):
            with pytest.raises(NotUniform):
                frames.frame(w)
            continue
        f = frames.frame(w)
        assert f.h + f.core + f.t == w, w


@given(st.text(alphabet="ab", max_size=150))
@settings(max_examples=300)
def test_frame_reassembly(w):
    u = reductions.complete_reduction(w)
    f = frames.frame(u)
    assert f.h + f.core + f.t == u
    assert len(f.h) <= 1 and len(f.t) <= 1
    assert words.is_phi_image(f.core)


@given(st.text(alphabet="ab", min_size=1, max_size=80))
def test_frame_of_exact_images(x):
    # an image with no fringe keeps its full length in the core unless the
    # word starts with a double at even position, which images never do
    img = words.phi(x)
    f = frames.frame(img)
    assert f == frames.Frame("", img, "")


@given(st.text(alphabet="ab", max_size=100))
@settings(max_examples=200)
def test_xi_wraps_with_negated_fringe(w):
    # the negated fringe letters complete U's fringe into blocks of its core
    u = reductions.complete_reduction(w)
    f = frames.frame(u)
    assert words.is_uniform(words.negate(f.h) + u + words.negate(f.t))
