"""Descent, rebuild, and the canonical-form entry points."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aofcanon import classes, overlap, pipeline, words
from aofcanon.classes import pattern_table
from aofcanon.errors import EmptyInput, WordError
from aofcanon.oracle import OracleAnswer, closure, oracle_equiv
from aofcanon.pipeline import Verdict
from aofcanon.reductions import Tail

import _oracles as slow

ab_words = st.text(alphabet="ab", min_size=1, max_size=128)


def test_ancestor_frozen_trace():
    s = pipeline.ancestor("aabaabbabb", trace=True)
    assert s.anc == "b"
    assert s.ell == 3
    assert [(r.word, r.L, r.R, r.h, r.t) for r in s.rounds] == [
        ("aabaabbabb", "a", "b", "a", "b"),
        ("bab", "", "", "", "b"),
        ("b", "", "", "", ""),
    ]
    assert s.rounds[0].tails == [
        Tail("left", "A", "nonuniform", 1, 8),
        Tail("right", "B", "nonuniform", 3, 10),
    ]
    assert s.rounds[1].tails == s.rounds[2].tails == []


def test_ancestor_without_trace_has_no_series():
    # the round records keep everything but the traced round words; kept, the
    # word the rebuild takes back, is there either way, but only on rounds that
    # ran on their words unchanged with every round below them: here the first
    # round trims its word, and the two below pass theirs through
    s = pipeline.ancestor("aabaabbabb")
    traced = pipeline.ancestor("aabaabbabb", trace=True)
    assert [r.word for r in s.rounds] == [None] * 3
    assert [r.kept for r in s.rounds] == [None, "bab", "b"]
    assert [(r.tails, r.L, r.R, r.h, r.t, r.kept) for r in s.rounds] == [
        (r.tails, r.L, r.R, r.h, r.t, r.kept) for r in traced.rounds
    ]


def test_records_are_frozen_and_round_is_slotted():
    s = pipeline.ancestor("aabaabbabb")
    tail = s.rounds[0].tails[1]
    records = [tail, s, closure("ab", 4), pattern_table()[0]]
    for rec in records:
        with pytest.raises(AttributeError):
            rec.seen = 1
        with pytest.raises(AttributeError):
            setattr(rec, type(rec)._fields[0], None)
    rnd = s.rounds[0]
    for slot in ("word", "tails", "L", "R", "h", "t", "kept"):
        setattr(rnd, slot, getattr(rnd, slot))
    with pytest.raises(AttributeError):
        rnd.seen = 1
    # the span shift the descent applies to a stuck tail past the left trim
    lo = 3
    moved = tail._replace(start=tail.start + lo, end=tail.end + lo)
    assert moved == Tail("right", "B", "nonuniform", 6, 13)
    assert tail == Tail("right", "B", "nonuniform", 3, 10)


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
    # a frame that pulls back to the round word less one letter, so the
    # descent still ends when nothing checks the halving
    monkeypatch.setattr(pipeline, "frame", lambda w: ("", w[1:], ""))
    with pytest.raises(RuntimeError, match="over half of 32"):
        pipeline.ancestor(slow.thue_morse(32))


def test_non_uniform_reduction_is_a_fault_not_bad_input(monkeypatch):
    # a completely reduced word is uniform by the descent's own invariant, so
    # a reduction that breaks it is a RuntimeError, which the CLI does not
    # report as bad input
    monkeypatch.setattr(pipeline, "complete_reduction", lambda w: w)
    with pytest.raises(RuntimeError, match="non-uniform") as info:
        pipeline.eqaof("abaabaaba")
    assert not isinstance(info.value, WordError)


def test_bad_word_messages_stay_short():
    # a rejected word is quoted up to 32 letters, so a long one does not
    # flood the message, or the CLI's stderr that echoes it
    bad = "ab" * 50000 + "c"
    for call in (
        words.check_word,
        pipeline.eqaof,
        lambda w: pipeline.decide_equiv(w, "ab"),
        lambda w: closure(w, len(w)),
    ):
        with pytest.raises(WordError) as info:
            call(bad)
        assert len(str(info.value)) < 100, str(info.value)[:200]


def test_descent_validates_its_words_once(monkeypatch):
    # every round word comes out of r1, so the descent re-checks none of
    # them: ancestor checks its input once where it enters, and eqaof checks
    # the stop word's class representative once more, in normalize
    checked = []
    check_word = words.check_word
    monkeypatch.setattr(words, "check_word", lambda w: checked.append(w) or check_word(w))
    for w in slow.words_up_to(12):
        checked.clear()
        series = pipeline.ancestor(w)
        assert checked == [w]
        rep = classes.match_S(series.anc)
        checked.clear()
        pipeline.eqaof(w)
        assert checked == [w] + ([rep] if rep is not None else [])


def test_final_check_is_the_traced_overlap_scan(monkeypatch):
    # the word the final check reads whole reaches overlap.has_overlap by
    # name, once, so the benchmark's span around it counts that read: the
    # rebuilt word's proper factors when it is short, else the one round
    # word of at most _FLOOR letters below the fringes the rebuild tested
    calls = []
    scan = overlap.has_overlap

    def counting(s, proper=False):
        calls.append((len(s), proper))
        return scan(s, proper)

    monkeypatch.setattr(overlap, "has_overlap", counting)
    for n, read in ((1000, (1000, True)), (2 * overlap._FLOOR, (overlap._FLOOR, False))):
        calls.clear()
        w = slow.thue_morse(n)
        assert pipeline.eqaof(w) == w
        assert calls == [read]


def test_uniform_rounds_take_frame_alone(monkeypatch):
    # a uniform round word has nothing for r1, in_special_class or
    # tail_reduce to find, so the descent hands it to frame alone
    calls: dict[str, list[int]] = {}
    for name in ("r1", "tail_reduce", "in_special_class", "frame"):
        calls[name] = []

        def counted(w, _orig=getattr(pipeline, name), _log=calls[name]):
            _log.append(len(w))
            return _orig(w)

        monkeypatch.setattr(pipeline, name, counted)
    n = 1 << 16
    w = slow.thue_morse(n)
    halves = [n >> k for k in range(15)]
    assert pipeline.eqaof(w) == w
    assert calls == {"r1": [2], "tail_reduce": [], "in_special_class": [], "frame": halves}
    # one planted cube: frame rejects the input, which takes the full round
    for log in calls.values():
        log.clear()
    k = w.find("aa")
    assert pipeline.eqaof(w[:k] + "a" + w[k:]) == w
    assert calls == {"r1": [n + 1, 2], "tail_reduce": [n], "in_special_class": [n], "frame": [n + 1] + halves}


def test_no_round_frames_a_word_twice(monkeypatch):
    # r1 and trimming only shorten a rejected word, so a round that left it
    # whole must not hand the same word to frame again
    framed: list[str] = []

    def logged(u, _orig=pipeline.frame):
        framed.append(u)
        return _orig(u)

    monkeypatch.setattr(pipeline, "frame", logged)
    for w in slow.words_up_to(14):
        framed.clear()
        pipeline.ancestor(w)
        assert len(framed) == len(set(framed)), (w, framed)


@given(ab_words)
@settings(max_examples=300)
def test_ancestor_halves_each_round(w):
    s = pipeline.ancestor(w, trace=True)
    series = [r.word for r in s.rounds]
    assert series[-1] == s.anc
    for prev, nxt in zip(series, series[1:]):
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
    rv = pipeline.eqaof(w[::-1])
    assert nv == (None if v is None else words.negate(v))
    assert rv == (None if v is None else v[::-1])


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
    assert pipeline.normalize("aa", s) == ("aabbaabb", "aabbaabb")


def test_normalize_identity_when_single_round():
    s = pipeline.ancestor("aabaa")
    assert s.ell == 1
    assert pipeline.normalize("aabaa", s) == ("aabaa", "aabaa")


def test_rebuild_from_stop_word_stays_in_class():
    # every rebuild step keeps the class, so the word rebuilt from the stop
    # word, whether or not that is a class representative, is one the
    # oracle joins to the input
    for u in slow.words_up_to(14):
        s = pipeline.ancestor(u)
        f, _ = pipeline.normalize(classes.match_S(s.anc) or s.anc, s)
        if f != u:
            assert oracle_equiv(u, f, max(len(u), len(f)) + 4) == OracleAnswer.YES, (u, f)


def _fringe_reads(monkeypatch) -> list[tuple[int, bool]]:
    """(round word length, overlap found) for each fringe test the rebuild
    makes; the standalone checks' own fringe tests are left out."""
    log: list[tuple[int, bool]] = []
    rebuilding = []
    test, rebuild = overlap.fringe_overlap, pipeline.normalize

    def logged(w, n, lx, ly, top):
        found = test(w, n, lx, ly, top)
        if rebuilding:
            log.append((n, found))
        return found

    def normalize(w, series):
        rebuilding.append(w)
        try:
            return rebuild(w, series)
        finally:
            rebuilding.pop()

    monkeypatch.setattr(overlap, "fringe_overlap", logged)
    monkeypatch.setattr(pipeline, "normalize", normalize)
    return log


def test_fused_final_check_matches_the_slow_reference_exhaustive(monkeypatch):
    # with the floor lowered, rebuilds of a dozen letters test their
    # fringes round by round; the verdict must still be the definition's
    monkeypatch.setattr(overlap, "_FLOOR", 8)
    reads = _fringe_reads(monkeypatch)
    found = 0
    for w in slow.words_up_to(14):
        reads.clear()
        _, rep, v, ok = pipeline._form(w)
        if rep is not None:
            assert ok == slow.aof_slow(v), (w, v)
            found += any(f for _, f in reads)
    assert found


def test_cube_collapse_above_the_floor_restarts_the_check(monkeypatch):
    # (aabb)^3 = a phi(ababa) b has an overlap at its fringe, and its image
    # (ababbaba)^3 collapses to a square, which is no longer x phi(u) y: the
    # check restarts there and reads that word whole, and only the top
    # round's fringes are tested above it
    monkeypatch.setattr(overlap, "_FLOOR", 8)
    reads = _fringe_reads(monkeypatch)
    rounds = [pipeline.Round(None) for _ in range(4)]
    rounds[2].L, rounds[2].R = "a", "b"
    series = pipeline.PrimarySeries("ababa", rounds)
    monkeypatch.setattr(pipeline, "ancestor", lambda u, trace=False: series)
    monkeypatch.setattr(pipeline, "match_S", lambda x: x)
    collapsed = "ababbaba" * 2
    verdicts = []
    for fringes in itertools.product(("", "a", "b"), repeat=4):
        rounds[0].L, rounds[0].h, rounds[0].t, rounds[0].R = fringes
        reads.clear()
        v, base = pipeline.normalize("ababa", series)
        # the fringe of (aabb)^3 holds an overlap, the collapse clears that,
        # and the top round's fringe test alone can reject again
        (n, below), (top, above) = reads
        assert (n, below, top) == (12, True, len(v)), reads
        assert base == (None if above else collapsed), v
        _, _, w, ok = pipeline._form("ababa")
        assert w == v and ok == slow.aof_slow(v), v
        verdicts.append(ok)
    assert 0 < sum(verdicts) < len(verdicts)


def _edited_thue_morse(rng: random.Random, tm: str, n: int) -> str:
    """A Thue-Morse factor of n letters with up to 40 letters prepended or
    appended, one letter flipped or a short square planted; or a random word."""
    k = rng.randrange(len(tm) - n)
    w = tm[k : k + n]
    kind = rng.randrange(5)
    extra = "".join(rng.choice("ab") for _ in range(rng.randint(1, 40)))
    j, p = rng.randrange(n), rng.randint(1, 6)
    return (
        extra + w,
        w + extra,
        w[:j] + words.negate(w[j]) + w[j + 1 :],
        w[: j + p] + w[j:],
        "".join(rng.choice("ab") for _ in range(n)),
    )[kind]


def test_fused_final_check_on_long_inputs(monkeypatch):
    # above the floor the rebuild tests its fringes round by round; its
    # verdict must be the standalone check's on the rebuilt word, with
    # fringe overlaps found both at the top round and at inner ones
    reads = _fringe_reads(monkeypatch)
    rng = random.Random(20261020)
    tm = slow.thue_morse(1 << 15)
    # 2 * _FLOOR letters and more, so that an inner round is above the floor
    inputs = [_edited_thue_morse(rng, tm, rng.randint(8193, 12000)) for _ in range(300)]
    big = slow.thue_morse((1 << 18) + 64)
    inputs += [_edited_thue_morse(rng, big, 1 << 18) for _ in range(6)]
    reached = {"top": 0, "inner": 0}
    for w in inputs:
        reads.clear()
        _, rep, v, ok = pipeline._form(w)
        if rep is not None:
            for n, found in reads:
                if found:
                    reached["top" if n == len(v) else "inner"] += 1
            assert ok == words.is_almost_overlap_free(v), (len(w), w[:40])
    assert all(reached.values()), reached


def test_normalize_rejects_bad_stop_words():
    s = pipeline.ancestor("abaabbabaabbab" * 4)
    with pytest.raises(EmptyInput):
        pipeline.normalize("", s)
    with pytest.raises(WordError):
        pipeline.normalize("xyz", s)


# Class walks: squares expanded to cubes and cubes contracted to squares stay
# in the class, so they give ground truth for words too long for the oracle.
WALK_SEED = 20261018
THREE_BLOCK_REPS = ("abaabaab", "abbabbab", "baabaaba", "babbabba", "bbabbabb", "aabaabaa")


def _tm_factors(rng: random.Random) -> list[str]:
    tm = slow.thue_morse(2**15)
    out = []
    for k in range(8, 15):
        for _ in range(2):
            start = rng.randrange(len(tm) - 2**k)
            out.append(tm[start : start + 2**k])
    return out


def _overlap_free_seeds(rng: random.Random) -> list[str]:
    return rng.sample([w for w in slow.overlap_free_words(40) if len(w) >= 16], 150)


def _random_seeds(rng: random.Random) -> list[str]:
    return ["".join(rng.choice("ab") for _ in range(rng.randint(4, 48))) for _ in range(60)]


def test_class_walks_from_thue_morse_factors():
    rng = random.Random(WALK_SEED)
    for f in _tm_factors(rng):
        w = slow.class_walk(f, rng, 60)
        assert w != f
        assert pipeline.eqaof(w) == f, len(f)


def test_class_walks_from_overlap_free_words():
    # an almost overlap-free word is its own canonical form, tails and all
    rng = random.Random(WALK_SEED)
    for u in _overlap_free_seeds(rng):
        w = slow.class_walk(u, rng, 20)
        assert pipeline.eqaof(w) == u, (u, w)


def test_class_walks_from_class_representatives():
    # the three-block classes have no almost overlap-free member at all
    rng = random.Random(WALK_SEED)
    reps = [cp.representative for cp in pattern_table()]
    assert set(THREE_BLOCK_REPS) <= set(reps)
    for rep in reps:
        want = None if rep in THREE_BLOCK_REPS else rep
        assert pipeline.eqaof(rep) == want, rep
        for _ in range(20):
            w = slow.class_walk(rep, rng, 12)
            assert pipeline.eqaof(w) == want, (rep, w)


def test_class_walks_keep_eqaof_on_random_words():
    rng = random.Random(WALK_SEED)
    for u in _random_seeds(rng):
        want = pipeline.eqaof(u)
        w = u
        for _ in range(15):
            w = slow.class_walk(w, rng, 1)
            assert pipeline.eqaof(w) == want, (u, w)


def test_class_walks_decide_equiv():
    rng = random.Random(WALK_SEED)
    seeds = (
        _tm_factors(rng)[:3]
        + [cp.representative for cp in pattern_table()]
        + _overlap_free_seeds(rng)[:40]
        + _random_seeds(rng)[:40]
    )
    for u in seeds:
        for v in (u, rng.choice(seeds)):
            cu, cv = pipeline.eqaof(u), pipeline.eqaof(v)
            got = pipeline.decide_equiv(slow.class_walk(u, rng, 8), slow.class_walk(v, rng, 8))
            assert (got == Verdict.EQUIVALENT) == (cu is not None and cu == cv), (u, v)


def test_descent_matches_slow_reference_exhaustive():
    # the composed stages against the paper's steps on the slow references
    for w in slow.words_up_to(14):
        series = pipeline.ancestor(w)
        rounds = [(r.L, r.R, r.h, r.t) for r in series.rounds]
        assert (series.anc, rounds) == slow.descent_slow(w), w


def test_rebuild_matches_slow_reference_exhaustive():
    # the rebuild, with the words it takes back, against h phi(w) t, YYY -> YY
    # and L/R applied by definition over the slow descent's tape
    for w in slow.words_up_to(14):
        series = pipeline.ancestor(w)
        rep = classes.match_S(series.anc) or series.anc
        assert pipeline.normalize(rep, series)[0] == slow.rebuild_slow(rep, slow.descent_slow(w)[1]), w
