"""Adversarial cross-check of the layered overlap detector.

The fast detector peels morphism layers and only ever checks periods
directly near the current word's ends, so the families below aim at its
weak spots: words that are exact morphism images of random cores wrapped in
every legal fringe, prefixes of the overlap-free fixed point, and small
mutations of both at the boundaries and in the middle. Everything is
compared against the quadratic checker, which is itself compared against
the letter-by-letter one on short words.
"""
from __future__ import annotations

import random

from aofcanon import overlap, words

import _oracles as slow


def test_quadratic_agrees_with_slow():
    for w in slow.words_up_to(13):
        assert overlap.brute_has_overlap(w) == slow.has_overlap_slow(w), w


def test_has_cube_agrees_with_slow():
    for w in slow.words_up_to(13):
        assert overlap.has_cube(w) == slow.has_cube_slow(w), w


def test_has_cube_long_planted():
    base = slow.thue_morse(2048)
    assert not overlap.has_cube(base)
    for pos in (0, 700, 2000):
        per = 37
        block = base[pos : pos + per]
        planted = base[:pos] + block * 3 + base[pos:]
        assert overlap.has_cube(planted)


def _mutate(w: str, positions: list[int]) -> str:
    out = list(w)
    for i in positions:
        out[i] = "a" if out[i] == "b" else "b"
    return "".join(out)


def _families(rng: random.Random):
    lengths = [65, 96, 127, 128, 129, 200, 255, 256, 257, 511, 512, 777, 1024, 2048, 4096]
    for n in lengths:
        base = slow.thue_morse(n)
        yield base
        yield words.negate(base)
        yield words.reverse(base)
        # boundary-targeted single flips, then random multi flips
        for i in range(min(8, n)):
            yield _mutate(base, [i])
            yield _mutate(base, [n - 1 - i])
        yield _mutate(base, [n // 2])
        for k in (1, 2, 3):
            yield _mutate(base, rng.sample(range(n), k))
    # morphism images of random cores behind every double-letter fringe
    fringes = ["", "a", "b", "aa", "bb"]
    for _ in range(60):
        depth = rng.randint(2, 5)
        core = "".join(rng.choice("ab") for _ in range(rng.randint(3, 40)))
        img = core
        for _ in range(depth):
            img = words.phi(img)
        u = rng.choice(fringes)
        v = rng.choice(fringes)
        w = u + img + v
        yield w
        n = len(w)
        yield _mutate(w, [rng.randrange(n)])
        yield w + rng.choice("ab")
        yield rng.choice("ab") + w
    # plain random words; nearly all contain overlaps but the verdicts
    # still have to match
    for _ in range(120):
        n = rng.randint(65, 320)
        yield "".join(rng.choice("ab") for _ in range(n))


def test_mirror_alternation_regression():
    # overlap-free 127-letter word that was misreported as containing an
    # overlap when the prefix-side mirror used negate-reverse at every
    # level instead of alternating with plain reverse
    w = (
        "aababbaabbabaababbabaabbaababbaabbabaabbaababbabaababbaabbab"
        "aababbabaabbaababbabaababbaabbabaabbaababbaabbabaababbabaabb"
        "aababba"
    )
    assert len(w) == 127
    assert not overlap.brute_has_overlap(w)
    assert not overlap.has_overlap(w)


def test_fast_matches_quadratic_on_adversarial_families():
    rng = random.Random(0x5EED)
    checked = 0
    for w in _families(rng):
        assert overlap.has_overlap(w) == overlap.brute_has_overlap(w), w
        checked += 1
    assert checked > 400


def test_fast_matches_quadratic_exhaustive_just_above_cut():
    # straddle the brute-force cutoff with dense coverage: every mutation
    # of the fixed-point prefix at lengths CUT-1 .. CUT+2
    for n in range(overlap.CUT - 1, overlap.CUT + 3):
        base = slow.thue_morse(n)
        for i in range(n):
            w = _mutate(base, [i])
            assert overlap.has_overlap(w) == overlap.brute_has_overlap(w), w


def test_thue_morse_prefixes_are_overlap_free():
    for n in (1, 2, 3, 100, 1000, 4096, 8192):
        assert not overlap.has_overlap(slow.thue_morse(n))


def test_overlap_equivariance_long():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(100, 1500)
        w = _mutate(slow.thue_morse(n), rng.sample(range(n), rng.randint(0, 2)))
        r = overlap.has_overlap(w)
        assert overlap.has_overlap(words.negate(w)) == r
        assert overlap.has_overlap(words.reverse(w)) == r
