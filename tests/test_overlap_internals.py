"""Cross-checks of the overlap detector against its references.

The fast detector tests only the periods 2^k and 3*2^k, on the lemma that
every square in a binary overlap-free word has such a period. The lemma is
tested here on every overlap-free word up to a length, and the detector is
compared with the every-period check on all short words, on single flips of
Thue-Morse prefixes whose length just admits each tested period, on overlaps
planted at the ends of a long word, where the bit masks are cut, and on
mutated morphism images. The every-period check is itself compared against
the letter-by-letter one on short words. Desubstitution, which runs only on
words above `overlap._FLOOR` letters, is tested with that floor lowered to 8
letters on short words, and at its own floor on Thue-Morse factors.
"""
from __future__ import annotations

import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from aofcanon import overlap, words

import _oracles as slow


def brute_has_overlap(s: str) -> bool:
    """Every period, whole word, on the detector's own bit scan. Quadratic;
    the reference for the periods and rounds has_overlap tests."""
    n = len(s)
    x = overlap._as_int(s)
    return any(overlap._run_mask(x, n, p, p + 1) for p in range(1, (n - 1) // 2 + 1))


def test_quadratic_agrees_with_slow():
    for w in slow.words_up_to(13):
        assert brute_has_overlap(w) == slow.has_overlap_slow(w), w


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
        yield base[::-1]
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
    # an overlap-free 127-letter word that an earlier detector misreported
    # as containing an overlap
    w = (
        "aababbaabbabaababbabaabbaababbaabbabaabbaababbabaababbaabbab"
        "aababbabaabbaababbabaababbaabbabaabbaababbaabbabaababbabaabb"
        "aababba"
    )
    assert len(w) == 127
    assert not brute_has_overlap(w)
    assert not overlap.has_overlap(w)


def test_fast_matches_quadratic_on_adversarial_families():
    rng = random.Random(0x5EED)
    checked = 0
    for w in _families(rng):
        assert overlap.has_overlap(w) == brute_has_overlap(w), w
        checked += 1
    assert checked > 400


def test_fast_matches_quadratic_exhaustive():
    for w in slow.words_up_to(16, min_len=0):
        assert overlap.has_overlap(w) == brute_has_overlap(w), w


def test_proper_factors_only():
    # proper=True asks for an overlap in s[:-1] or s[1:]; words of up to two
    # letters have no proper factor long enough
    for w in ("", "a", "ab", "aaa"):
        assert overlap.has_overlap(w, proper=True) is False
    for w in slow.words_up_to(10):
        assert overlap.has_overlap(w, proper=True) == (
            overlap.has_overlap(w[:-1]) or overlap.has_overlap(w[1:])
        ), w


def _tested_periods(top: int) -> list[int]:
    return sorted(m << k for m in (1, 3) for k in range(top.bit_length()) if m << k <= top)


def test_fast_matches_quadratic_on_thue_morse_flips():
    # lengths 2p+1 and 2p+2 are the first at which period p is scanned
    for p in _tested_periods(64):
        for n in (2 * p + 1, 2 * p + 2):
            base = slow.thue_morse(n)
            for i in range(n):
                w = _mutate(base, [i])
                assert overlap.has_overlap(w) == brute_has_overlap(w), w


def test_overlaps_planted_at_the_ends():
    # the first letter sits under the sentinel bit and the last letter at
    # bit 0, where the agreement masks are cut
    base = slow.thue_morse(4096)
    n = len(base)
    for p in range(1, 41):
        y = base[100 : 100 + p]
        for planted in (y + y + y[0], y + y + words.negate(y[0])):
            for w in (planted + base[len(planted) :], base[: n - len(planted)] + planted):
                assert overlap.has_overlap(w) == brute_has_overlap(w), (p, w[:90], w[-90:])
        assert overlap.has_overlap(y + y + y[0] + base[2 * p + 1 :])
        assert overlap.has_overlap(base[: n - 2 * p - 1] + y + y + y[0])


def test_squares_in_overlap_free_words_have_period_2k_or_3_2k():
    # the lemma the fast detector rests on (Shelton-Soni); each square of
    # an overlap-free word ends some prefix, which is itself enumerated
    allowed = set(_tested_periods(40))
    count = 0
    for w in slow.overlap_free_words(80):
        n = len(w)
        for p in range(1, n // 2 + 1):
            if w[n - 2 * p : n - p] == w[n - p :]:
                assert p in allowed, w
        count += 1
    assert count > 20_000


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
        assert overlap.has_overlap(w[::-1]) == r


def _agrees_with_the_scan(w: str) -> None:
    assert overlap.has_overlap(w) == brute_has_overlap(w), w
    proper = brute_has_overlap(w[:-1]) or brute_has_overlap(w[1:])
    assert overlap.has_overlap(w, proper=True) == proper, w


def test_desubstitution_matches_references_exhaustive(monkeypatch):
    monkeypatch.setattr(overlap, "_FLOOR", 8)
    for w in slow.words_up_to(16, min_len=0):
        assert overlap.has_overlap(w) == brute_has_overlap(w), w
        assert words.is_almost_overlap_free(w) == slow.aof_slow(w), w


def test_desubstitution_on_adversarial_families(monkeypatch):
    monkeypatch.setattr(overlap, "_FLOOR", 8)
    for w in _families(random.Random(0x5EED)):
        _agrees_with_the_scan(w)


_TM = slow.thue_morse(1 << 14)
_FRINGES = ("", "a", "b", "aa", "bb")


@st.composite
def _planted(draw, length: int) -> str:
    """A Thue-Morse factor between fringe letters, with an overlap (or, with
    its last letter flipped, a square) planted at its start, middle or end."""
    n = draw(st.integers(length - length // 4, length))
    i = draw(st.integers(0, len(_TM) - n))
    w = draw(st.sampled_from(_FRINGES)) + _TM[i : i + n] + draw(st.sampled_from(_FRINGES))
    cut = draw(st.sampled_from((None, 0, len(w) // 2, len(w))))
    if cut is None:
        return w
    p = draw(st.integers(1, max(1, len(w) // 3)))
    j = draw(st.integers(0, len(w) - p))
    y = w[j : j + p]
    tip = y[0] if draw(st.booleans()) else words.negate(y[0])
    return w[:cut] + y + y + tip + w[cut:]


@given(_planted(400))
@settings(max_examples=300)
def test_desubstitution_on_planted_thue_morse_factors(w):
    saved = overlap._FLOOR
    overlap._FLOOR = 8
    try:
        _agrees_with_the_scan(w)
    finally:
        overlap._FLOOR = saved


@given(_planted(1 << 13))
@settings(max_examples=20)
def test_desubstitution_above_the_floor(w):
    # long enough that the proper-factor test desubstitutes w[:-1] too
    assert len(w) > overlap._FLOOR + 1
    _agrees_with_the_scan(w)


def test_almost_overlap_free_check_is_lean():
    # desubstitution holds half-length slices only; the scan held the word
    # as bytes twice over, 2 MiB on this word
    w = slow.thue_morse(1 << 20)
    tracemalloc.start()
    try:
        assert words.is_almost_overlap_free(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_letter_check_is_lean():
    # the check encodes 64K letters at a time; encoding and translating the
    # whole word held 2 MiB on this word
    w = slow.thue_morse(1 << 20)
    tracemalloc.start()
    try:
        assert words.check_word(w) is w
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18
