"""Fringe splitting of uniform words, and the cube windows of the rest."""
from __future__ import annotations

import itertools
import random

import pytest
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


def _runs_of_three(w: str) -> list[tuple[int, int]]:
    """The [start, end) span of each maximal run of 3 or more letters."""
    out, i = [], 0
    for _, run in itertools.groupby(w):
        k = len(list(run))
        if k >= 3:
            out.append((i, i + k))
        i += k
    return out


def _check_windows(w: str, f, *spans: tuple[int, int]) -> None:
    """f, frame's answer on w, reads w as not uniform: None, or sorted
    windows short of the whole word, each run of 3 or more letters and each
    of the given spans whole inside one of them, and r1 searching them alone
    gives r1 of the whole word."""
    assert not slow.uniform_slow(w)
    assert type(f) is not tuple
    if f is None:
        assert not spans
        return
    bounds = [0, *(x for window in f for x in window), len(w)]
    assert bounds == sorted(bounds)
    assert f != [[0, len(w)]]
    for s, e in _runs_of_three(w) + list(spans):
        assert any(lo <= s and e <= hi for lo, hi in f), (s, e, f)
    assert reductions.r1(w, f) == slow.r1_by_runs(w)


def test_frame_long_words_at_both_offsets_and_parities():
    # the pre-image is a prefix of the even or the odd letters, whichever
    # start at the offset; in the last two words only the final pair of
    # letters is a double at the wrong parity, so frame reads to the end and
    # answers a window that holds it
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
            _check_windows(u, f, (len(u) - 2, len(u)))
            continue
        assert f[0] == h and f[0] + words.phi(f[1]) + f[2] == u, len(u)


def test_frame_block_edges_at_both_offsets_and_parities():
    # frame compares a block of pairs at a time; each word's halves span
    # four blocks, and making one block's first or last pair a double at the
    # word's own offset, the only such pair, makes the word not uniform, with
    # that double in a window
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
                _check_windows(v, frames.frame(v), (k - 1, k + 1))


def test_frame_rejects_a_long_random_word():
    # both offsets fail the first two scan blocks, so the windows would be
    # the whole word; after a Thue-Morse stretch, random letters are one
    # window to the end
    rng = random.Random(20)
    w = "".join(rng.choices("ab", k=1 << 20))
    assert not slow.uniform_slow(w)
    assert frames.frame(w) is None
    t = slow.thue_morse(5 * 2 * frames._SCAN)
    v = t + w[: 4 * frames._SCAN]
    f = frames.frame(v)
    _check_windows(v, f, (len(t), len(v)))
    assert f[0][0] >= len(t) - 4 * frames._SCAN


def _plant_cubes(w: str, at: list[int]) -> str:
    """w with the first double at or after each position in at (in order,
    counted in the word as planted so far) grown to a cube."""
    for p in at:
        k = next(i for i in range(p, len(w) - 1) if w[i] == w[i + 1])
        w = w[:k] + w[k] + w[k:]
    return w


def test_windows_hold_planted_cubes_on_long_words():
    # a cube spoils both offsets of a block that holds it or crosses a seam
    # where the block before fails offset 1 and the block after offset 0;
    # each planted letter shifts the parity of the rest; at every third
    # block edge, no two blocks in a row hold a cube
    s = 2 * frames._SCAN  # letters per scan block
    tm = slow.thue_morse(1 << 17)
    rng = random.Random(34)
    for trial in range(8):
        start = rng.randrange(1 << 16)
        w = tm[start : start + (1 << 16)]
        v = _plant_cubes(w, [k * s + trial - 4 for k in range(2, 16, 3)])
        f = frames.frame(v)
        _check_windows(v, f)
        assert sum(hi - lo for lo, hi in f) <= 5 * (s + 16), f
    # a cube at either end, and a run across several blocks
    w = tm[: 1 << 16]
    for v in w[0] * 2 + w, w + w[-1] * 2, w[: 3 * s] + "a" * 10_000 + w[3 * s :]:
        _check_windows(v, frames.frame(v))
    # two blocks in a row inside the run: the rest of the word is one window
    run = w[: 3 * s] + "a" * 10_000 + w[3 * s :]
    [[lo, hi]] = frames.frame(run)
    assert 3 * s - 8 <= lo and hi == len(run)


@pytest.mark.parametrize("pairs", [1, 2, 3])
def test_windows_with_tiny_blocks_exhaustive(monkeypatch, pairs):
    # with blocks of 1-3 pairs, short words have many blocks and seams
    monkeypatch.setattr(frames, "_BLOCK", pairs)
    monkeypatch.setattr(frames, "_SCAN", pairs)
    answers = set()
    for w in slow.words_up_to(16, min_len=0):
        f = frames.frame(w)
        answers.add(type(f))
        if type(f) is tuple:
            assert slow.uniform_slow(w) and f[0] + words.phi(f[1]) + f[2] == w, w
            continue
        _check_windows(w, f)
        if f is not None:
            assert reductions.r1(w, f) == reductions.r1(w), w
    assert answers == {tuple, list, type(None)}


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
