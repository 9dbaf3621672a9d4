"""Power collapse, site collapse, and tail handling."""
from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aofcanon import classes, frames, overlap, pipeline, reductions, words
from aofcanon.reductions import Tail

import _oracles as slow

ab_words = st.text(alphabet="ab", max_size=120)


@pytest.mark.parametrize(
    ("w", "expected"),
    [
        ("abaaab", "abaab"),
        ("aaaa", "aa"),
        ("bbbbb", "bb"),
        ("aaabbbaaa", "aabbaa"),
        ("ab", "ab"),
        ("", ""),
    ],
)
def test_r1_examples(w, expected):
    assert reductions.r1(w) == expected


@given(ab_words)
def test_r1_matches_slow_fixpoint(w):
    got = reductions.r1(w)
    assert got == slow.r1_slow(w)
    assert reductions.r1(got) == got


def test_r1_matches_slow_exhaustive():
    for w in slow.words_up_to(16):
        assert reductions.r1(w) == slow.r1_slow(w), w


# runs of 1-40 letters, alternating letters, so that cubes of either letter,
# both or neither occur: each of r1's two per-letter gates taken or skipped
_runs = st.lists(st.integers(1, 40), max_size=12)


def _from_runs(first: str, lengths: list[int]) -> str:
    return "".join(("ab" if first == "a" else "ba")[i % 2] * n for i, n in enumerate(lengths))


@given(st.sampled_from("ab"), _runs)
def test_r1_matches_slow_on_runs(first, lengths):
    w = _from_runs(first, lengths)
    assert reductions.r1(w) == slow.r1_slow(w)


# r1 finds a word's last len(w) // overlap._FLOOR cubes of each letter one
# by one and substitutes the rest; at floor 8 short words take both paths
def test_r1_above_a_lowered_floor_exhaustive(monkeypatch):
    monkeypatch.setattr(overlap, "_FLOOR", 8)
    for w in slow.words_up_to(16):
        assert reductions.r1(w) == slow.r1_slow(w), w


@given(st.sampled_from("ab"), _runs)
def test_r1_above_a_lowered_floor_on_runs(first, lengths):
    w = _from_runs(first, lengths)
    saved = overlap._FLOOR
    overlap._FLOOR = 8
    try:
        assert reductions.r1(w) == slow.r1_slow(w)
    finally:
        overlap._FLOOR = saved


_TM = slow.thue_morse(1 << 15)


@st.composite
def _tm_with_runs(draw) -> str:
    """A Thue-Morse factor of 8,192-16,384 letters with up to 12 letter runs
    of 3-40 letters planted, at the ends too: fewer and more cubes of a
    letter than r1 finds one by one (2 to 4 at the real floor)."""
    n = draw(st.integers(1 << 13, 1 << 14))
    i = draw(st.integers(0, len(_TM) - n))
    w = _TM[i : i + n]
    for _ in range(draw(st.integers(0, 12))):
        j = draw(st.integers(0, len(w)))
        w = w[:j] + draw(st.sampled_from("ab")) * draw(st.integers(3, 40)) + w[j:]
    return w


@given(_tm_with_runs())
@settings(max_examples=60)
def test_r1_above_the_floor(w):
    assert len(w) >= 2 * overlap._FLOOR
    assert reductions.r1(w) == slow.r1_by_runs(w)


# r1 cuts a letter's last len(w) // overlap._FLOOR cubes one by one, right to
# left, and substitutes the word left of them: the edges of that loop at the
# real floor
@pytest.mark.parametrize("w", ["a" * 10_000, "b" * 10_000, "ab" + "a" * 10_000 + "b"])
def test_r1_one_long_run(w):
    assert reductions.r1(w) == slow.r1_by_runs(w)


@pytest.mark.parametrize("i", [0, 3, 4, 9])
def test_r1_cubes_at_both_ends(i):
    # a cube at index 0 and one that ends on the last letter: of both letters
    # or of one, in runs of exactly 3 letters or longer
    f = _TM[i : i + (1 << 13)]
    w = f[0] * 2 + f + f[-1] * 2
    assert w.startswith(w[0] * 3) and w.endswith(w[-1] * 3)
    assert reductions.r1(w) == slow.r1_by_runs(w)


_F = _TM[: 1 << 13]  # starts with a


@pytest.mark.parametrize(
    "w",
    [
        # one b-cube more than r1 cuts one by one, so the word left to
        # substitute holds just the cube at index 0
        "bbb" + _F[:4096] + "bbb" + _F[4096:] + "bbb",
        "bbb".join(["", *(_F[j : j + 1000] for j in range(0, len(_F), 1000))]),
    ],
)
def test_r1_more_cubes_than_it_cuts_one_by_one(w):
    assert w.count("bbb") > len(w) // overlap._FLOOR
    assert reductions.r1(w) == slow.r1_by_runs(w)


def _planted(base: str, letters: str) -> str:
    """base with a cube of each of the letters planted, evenly spaced."""
    step = len(base) // (len(letters) + 1)
    pieces = [base[i * step : (i + 1) * step] + c * 3 for i, c in enumerate(letters)]
    return "".join(pieces) + base[len(letters) * step :]


# r1 cuts the last len(w) // overlap._FLOOR runs with a cube, of either
# letter, and substitutes the word left of them one letter after the other:
# runs of both letters interleave past that count, so the cut loop stops
# with cubes of one letter or of both left for the substitution
@pytest.mark.parametrize("base", [_F, _TM], ids=["2-cuts", "8-cuts"])
@pytest.mark.parametrize(
    "letters", ["ab" * 6, "ba" * 6, "aabb" * 3, "abbbbbaaaaab", "aaaaabbbbbbb", "bbbbbbbbbaba"]
)
def test_r1_cut_loop_stops_between_letters(base, letters):
    w = _planted(base, letters)
    # the letter of each run with a cube, left to right
    assert "".join(m.group()[0] for m in re.finditer(r"a{3,}|b{3,}", w)) == letters
    assert len(letters) > len(w) // overlap._FLOOR
    got = reductions.r1(w)
    assert got == slow.r1_by_runs(w)
    assert reductions.r1(got) is got


# the later of the two letters' last cubes is cut first, so the letter cut
# changes from one run to the next; the first cube starts the word, and is
# cut one by one (8 cuts) or substituted (2 cuts)
@pytest.mark.parametrize("base", [_F, _TM], ids=["2-cuts", "8-cuts"])
@pytest.mark.parametrize("first", "ab")
@pytest.mark.parametrize("last", "ab")
def test_r1_rightmost_cube_of_each_letter_in_turn(base, first, last):
    w = first * 3 + _planted(base, "abba") + last * 3
    assert w.startswith(first * 3) and w.endswith(last * 3)
    assert reductions.r1(w) == slow.r1_by_runs(w)


@pytest.mark.parametrize("w", ["abaabbab", _TM])
def test_r1_returns_a_cube_free_word_itself(w):
    # no copy: the descent calls r1 on every non-uniform round
    assert reductions.r1(w) is w


def test_complete_reduction_example():
    assert reductions.complete_reduction("abaabaaba") == "abaaba"


@pytest.mark.parametrize("k", [1, 2, 3, 10, 1_000, 2 ** 15])
def test_complete_reduction_of_a_long_site_run(k):
    # every double of ab (aab)^k a is an a-double, so all k of them merge
    # into the first; a reduction that rebuilt the word once per collapsed
    # site took quadratic time here
    w = "ab" + "aab" * k + "a"
    assert reductions.complete_reduction(w) == "abaaba"
    assert pipeline.eqaof(w) == "abaaba"


def test_complete_reduction_fixpoint_iff_uniform():
    # complete_reduction takes a cube-collapsed word, as the descent hands it
    for w in slow.words_up_to(12):
        fixed = reductions.complete_reduction(reductions.r1(w)) == w
        assert fixed == (frames.frame(w) is not None), w


@given(ab_words)
@settings(max_examples=300)
def test_complete_reduction_lands_uniform(w):
    assert frames.frame(reductions.complete_reduction(reductions.r1(w))) is not None


_SITE = re.compile(r"a(?:ab)+?aa|b(?:ba)+?bb")  # one aXa / bXb site


def _random_order_reduction(w: str, rng: random.Random) -> str:
    w = slow.r1_slow(w)
    while True:
        sites = []
        for i in range(len(w)):
            m = _SITE.match(w, i)
            if m:
                sites.append((m.start(), m.end()))
        if not sites:
            break
        i, j = rng.choice(sites)
        w = slow.r1_slow(w[:i] + w[i] * 2 + w[j:])
    return w


def test_complete_reduction_order_independent():
    rng = random.Random(417)
    for w in slow.words_up_to(14):
        assert _random_order_reduction(w, rng) == reductions.complete_reduction(reductions.r1(w)), w
    for _ in range(250):
        n = rng.randint(4, 48)
        w = "".join(rng.choice("ab") for _ in range(n))
        expected = reductions.complete_reduction(reductions.r1(w))
        for _ in range(3):
            assert _random_order_reduction(w, rng) == expected, w


def test_sites_and_wholeness():
    # unprotected site right at the boundary
    assert not reductions.is_ab_whole("aabaa")
    # the same site wrapped in ab ... ba is protected
    assert reductions.is_ab_whole("abaabaaba")
    # doubles of different letters never form a site
    assert reductions.is_ab_whole("abaabba")
    assert reductions.is_ab_whole("aabbaabbaabb")


def test_wholeness_matches_slow_exhaustive():
    for w in slow.words_up_to(16, min_len=0):
        if "aaa" in w or "bbb" in w:
            continue
        expected = slow.unprotected_sites_slow(w)
        assert reductions.is_ab_whole(w) == (not expected), w


def _doubles_apart(first: str, stretches: list[int]) -> str:
    """Alternating stretches of the given lengths with a double between each two.

    Each double's letter differs from the letter before it, so the word is
    cube-collapsed, and every cube-collapsed word splits this way.
    """
    alt = "ab" * 21
    out = (alt if first == "a" else alt[1:])[: stretches[0]]
    for n in stretches[1:]:
        d = "b" if out.endswith("a") else "a"
        out += d + d + (alt[1:] if d == "a" else alt)[:n]
    return out


# stretches of 0-40 letters between up to 8 doubles: long runs of sites, and
# long alternating stretches next to a word end, which the exhaustive test
# above cannot reach. Half the stretches are drawn short, since only short
# ones leave a site open: about half the words have an unprotected site.
_stretch = st.integers(0, 3) | st.integers(0, 40)


@given(st.sampled_from("ab"), st.lists(_stretch, min_size=1, max_size=9))
@settings(max_examples=300)
def test_wholeness_matches_slow_on_long_stretches(first, stretches):
    w = _doubles_apart(first, stretches)
    assert slow.r1_slow(w) == w
    expected = slow.unprotected_sites_slow(w)
    assert reductions.is_ab_whole(w) == (not expected)


def test_uniform_words_have_nothing_to_collapse():
    # pipeline.ancestor sends a uniform round word straight to frames.frame
    for w in slow.words_up_to(16, min_len=0):
        if slow.uniform_slow(w):
            assert reductions.is_ab_whole(w), w
            assert reductions.complete_reduction(w) == w, w
            assert reductions.detect_non_reducible_tails(w) == [], w
            # nor anything for the stages frame alone stands in for
            assert reductions.r1(w) == w, w
            assert not classes.in_special_class(w), w
            assert reductions.tail_reduce(w) == ([], 0, len(w)), w


# Thue-Morse factors, and images h + phi(x) + t of any x, which may hold
# cubes and every tail pattern
_fringe = st.sampled_from(("", "a", "b"))
_uniform = st.builds(
    lambda n, i: _TM[i : i + n], st.integers(17, 400), st.integers(0, 1 << 12)
) | st.builds(
    lambda h, x, t: h + words.phi(x) + t, _fringe, st.text(alphabet="ab", min_size=8, max_size=200), _fringe
)


@given(_uniform)
def test_uniform_long_words_have_nothing_to_collapse(w):
    assert slow.uniform_slow(w)
    assert reductions.r1(w) == w
    assert not classes.in_special_class(w)
    assert reductions.tail_reduce(w) == ([], 0, len(w))


def test_wholeness_negation_symmetry():
    for w in slow.words_up_to(10):
        if slow.r1_slow(w) != w:
            continue
        assert reductions.is_ab_whole(w) == reductions.is_ab_whole(words.negate(w)), w


def test_tail_detection_frozen():
    got = reductions.detect_non_uniform_tails("aabaabbabb")
    assert got == [
        Tail("left", "A", "nonuniform", 1, 8),
        Tail("right", "B", "nonuniform", 3, 10),
    ]
    assert reductions.detect_non_reducible_tails("aabaabbabb") == []

    got = reductions.detect_non_reducible_tails("abaababaa")
    assert got == [Tail("left", "A", "nonreducible", 1, 9)]
    rev = "abaababaa"[::-1]
    assert reductions.detect_non_reducible_tails(rev) == [
        Tail("right", "A", "nonreducible", 1, 9)
    ]


def test_tail_detection_none_on_plain_words():
    for w in ("abab", "aabb", "babbab", "a"):
        assert reductions.detect_non_uniform_tails(w) == []
        assert reductions.detect_non_reducible_tails(w) == []


def test_tail_detection_matches_slow_exhaustive():
    # every word, cube-collapsed or not; the slow reference lists each matching
    # block count, so one entry per family and side means one match length
    for w in slow.words_up_to(16, min_len=0):
        found = slow.tails_slow(w)
        for family, detect in (
            ("nonuniform", reductions.detect_non_uniform_tails),
            ("nonreducible", reductions.detect_non_reducible_tails),
        ):
            expected = sorted((side, c, s, e) for f, side, c, s, e in found if f == family)
            assert len({side for side, *_ in expected}) == len(expected), (w, expected)
            got = detect(w)
            assert all(t.family == family for t in got), w
            assert [(t.side, t.letter_class, t.start, t.end) for t in got] == expected, w


def test_tail_detection_symmetry():
    # right-side detection is left-side detection on the reversed word,
    # class preserved; negation swaps the class letter
    rng = random.Random(90)
    swap = {"A": "B", "B": "A"}
    for _ in range(300):
        n = rng.randint(1, 40)
        w = "".join(rng.choice("ab") for _ in range(n))
        for detect in (reductions.detect_non_uniform_tails, reductions.detect_non_reducible_tails):
            got = detect(w)
            neg = detect(words.negate(w))
            assert [(t.side, swap[t.letter_class], t.start, t.end) for t in got] == [
                (t.side, t.letter_class, t.start, t.end) for t in neg
            ]
            rev = detect(w[::-1])
            flip = {"left": "right", "right": "left"}
            assert sorted(
                (flip[t.side], t.letter_class, n - t.end + 1, n - t.start + 1) for t in got
            ) == sorted((t.side, t.letter_class, t.start, t.end) for t in rev)


def _right_tails_agree(w: str) -> None:
    # _detect reverses the word only when it ends as a right-side tail of the
    # family can; reversing every word finds no other tail
    for family in (reductions.NON_UNIFORM, reductions.NON_REDUCIBLE):
        m = reductions._LEFT[family](w[::-1])
        unguarded = [] if m is None else [(len(w) - m.end() + 1, len(w))]
        got = [(t.start, t.end) for t in reductions._detect(w, family) if t.side == "right"]
        assert got == unguarded, (w, family)


def test_right_tail_guard_exhaustive():
    for w in slow.words_up_to(14, min_len=0):
        _right_tails_agree(w)


@given(st.lists(st.sampled_from(["a", "b", "ab", "ba", "aab", "bba", "aba", "bab"]), max_size=40))
def test_right_tail_guard_random(pieces):
    _right_tails_agree("".join(pieces))


def _trim_side(w: str, side: str) -> str:
    # cut one side's non-uniform tail, detected on w itself, to 7 letters
    for t in reductions.detect_non_uniform_tails(w):
        if t.side == side:
            return w[t.end - 7 :] if side == "left" else w[: t.start + 6]
    return w


def _trimmed(w: str) -> str:
    _, start, end = reductions.tail_reduce(w)
    return w[start:end]


def test_tail_reduce_frozen():
    tails, start, end = reductions.tail_reduce("aabaabbabb")
    assert tails == reductions.detect_non_uniform_tails("aabaabbabb")
    assert "aabaabbabb"[start:end] == "abaabbab"
    assert _trim_side("aabaabbabb", "left") == "abaabbabb"
    assert _trim_side("aabaabbabb", "right") == "aabaabbab"
    # words without tails pass through untouched
    assert reductions.tail_reduce("aabbaabbaabb") == ([], 0, 12)
    assert reductions.tail_reduce("ab") == ([], 0, 2)


def test_tail_reduce_keeps_seven_of_span():
    # left trim keeps exactly the last 7 letters of the matched span
    w = "aab" * 3 + "ba" + "bbab"
    (t,) = reductions.detect_non_uniform_tails(w)
    assert (t.side, t.start, t.end) == ("left", 1, 11)
    assert reductions.tail_reduce(w) == ([t], t.end - 7, len(w))


def test_tail_reduce_sides_commute_exhaustive():
    # tail_reduce trims both sides from one detection on the whole word;
    # trimming one side and then detecting again on the rest agrees
    for w in slow.words_up_to(16):
        if "aaa" in w or "bbb" in w:
            continue
        both = _trimmed(w)
        assert both == _trim_side(_trim_side(w, "left"), "right"), w
        assert both == _trim_side(_trim_side(w, "right"), "left"), w
