"""Linear time as an exact count: the letters handed to each stage per input letter.

Each stage gets a counting wrapper that adds up the length of its first
argument over one `eqaof`. A stage that reads its word a bounded number of
times then reads that many letters, so a count per input letter that stays
flat from 2^14 to 2^20 letters says the work grows linearly, on a measure
that does not drift with the machine the way `test_09`'s timings do.
"""
from __future__ import annotations

import random

import pytest

from aofcanon import overlap, pipeline, words

import _oracles as slow

SMALL, LARGE = 1 << 14, 1 << 20
CUBE_SPACING = 1 << 12  # one planted cube per this many letters
SLACK = 0.01  # a stage may read this much more per input letter at LARGE

# the stages pipeline calls by name, and the leaves under the rebuild and final check
_PIPELINE_STAGES = (
    "frame", "r1", "tail_reduce", "is_ab_whole", "complete_reduction",
    "detect_non_reducible_tails", "in_special_class", "match_S",
)
_MODULE_STAGES = ((words, "phi"), (overlap, "has_overlap"), (overlap, "fringe_overlap"))


def _planted_tm(n: int) -> str:
    """The Thue-Morse prefix of n letters with the first square YY found
    from each multiple of CUBE_SPACING rewritten to YYY, |Y| = 1, 2, 4, 8 in
    turn, so that the smallest prefix holds every period."""
    tm = slow.thue_morse(n)
    out, i = [], 0
    for b, s in enumerate(range(0, n - CUBE_SPACING, CUBE_SPACING)):
        p = 1 << (b % 4)
        s = next(j for j in range(s, n) if tm.startswith(tm[j : j + p], j + p))
        out.append(tm[i : s + 2 * p] + tm[s : s + p])
        i = s + 2 * p
    out.append(tm[i:])
    return "".join(out)


# each family as one word of at least LARGE letters and how to cut its
# word of about n letters, so the smaller word is a prefix of the larger
_FAMILIES = {
    "random": (lambda: "".join(random.Random(14).choices("ab", k=LARGE)), lambda n: n),
    "(aab)^k": (lambda: "aab" * (LARGE // 3), lambda n: 3 * (n // 3)),
    "ab(aab)^k a": (lambda: "ab" + "aab" * (LARGE // 3), lambda n: 3 * ((n - 3) // 3) + 3),
    "ab(aabaababbabbab)^k": (
        lambda: "ab" + "aabaababbabbab" * (LARGE // 14),
        lambda n: 14 * ((n - 2) // 14) + 2,
    ),
    "planted Thue-Morse": (lambda: _planted_tm(LARGE), lambda n: n),
    "Thue-Morse": (lambda: slow.thue_morse(LARGE), lambda n: n),
}


def _letters_per_stage(monkeypatch, w: str) -> dict[str, float]:
    counts: dict[str, int] = {}

    def counting(name, fn):
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += len(args[0])
            return fn(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as m:
        for name in _PIPELINE_STAGES:
            m.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
        for module, name in _MODULE_STAGES:
            m.setattr(module, name, counting(name, getattr(module, name)))
        pipeline.eqaof(w)
    return {name: c / len(w) for name, c in counts.items()}


# The final check splits at overlap._FLOOR: has_overlap reads the one round
# word at or below the floor whole, and fringe_overlap is handed every rebuilt
# round word above it, though it reads only that word's ends. As the input
# grows, letters move from the first count to the second, so the two are not
# flat; the round words halve, so together they stay below 2.
_FLOOR_SPLIT = ("has_overlap", "fringe_overlap")


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_letters_per_stage_stay_flat(monkeypatch, family):
    make, cut = _FAMILIES[family]
    w = make()
    small = _letters_per_stage(monkeypatch, w[: cut(SMALL)])
    large = _letters_per_stage(monkeypatch, w[: cut(LARGE)])
    grew = {
        k: (small[k], large[k])
        for k in small
        if k not in _FLOOR_SPLIT and large[k] > small[k] * (1 + SLACK)
    }
    assert not grew
    for counts in small, large:
        assert sum(counts[k] for k in _FLOOR_SPLIT) < 2


@pytest.mark.parametrize("n", [SMALL, LARGE])
def test_thue_morse_prefix_is_taken_back_whole(monkeypatch, n):
    # every round of a Thue-Morse prefix is uniform and its stop word is its
    # own representative, so the rebuild takes back each round word the
    # descent passed through and hands phi no letter
    w = slow.thue_morse(n)
    assert _letters_per_stage(monkeypatch, w)["phi"] == 0
    assert pipeline.eqaof(w) is w
