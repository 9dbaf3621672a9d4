"""End-to-end acceptance gate.

Nine checks, one test per line of `pytest -v` output.  Each one
cross-validates the fast pipeline against the brute-force rewriting
oracle, or pins a contract the library promises (certified blocks,
cube collapse, symmetry equivariance, near-linear scaling).

These are deliberately heavier than the unit tests.  The whole module
stays under a minute on an ordinary laptop; budgets are pinned in the
constants below rather than buried in the test bodies.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time

from aofcanon import frames, oracle, pipeline, reductions, words
from aofcanon.classes import pattern_table
from aofcanon.oracle import OracleAnswer
from aofcanon.pipeline import Verdict

import _oracles as slow

EXHAUSTIVE_LEN = 18          # every word up to here is enumerable in seconds
RECOGNIZER_BOUND = 20        # closure bound for the 30 reference classes
DISJOINT_AOF_LEN = 12        # seeds for the pairwise-disjointness sweep
DISJOINT_BOUND = 19
ORACLE_AOF_LEN = 10          # seeds for the members-map-back sweep
ORACLE_BOUND = 17
SYMMETRY_SAMPLE = 10_000
SYMMETRY_MAX_LEN = 256
SYMMETRY_SEED = 20260822
CLOSURE_SYM_MAX_LEN = 20     # closure growth is exponential in the bound,
CLOSURE_SYM_STRIDE = 8       # so the closure leg runs on short seeds only
SCALING_SEED = 2026
SCALING_SIZES = [2 ** k for k in range(14, 21)]
SCALING_FAMILIES = 8         # independent random base words, sliced to prefixes
SCALING_ROUNDS = 3           # timed passes over every (family, size) pair
SCALING_TM_ROUNDS = 5
SCALING_RUN_SIZES = [2 ** k for k in range(12, 18)]
MAX_DOUBLING_RATIO = 3.0
MIN_LETTERS_PER_SEC = 1e6


def _every_word(min_len: int, max_len: int):
    for n in range(min_len, max_len + 1):
        for tpl in itertools.product("ab", repeat=n):
            yield "".join(tpl)


def _canonical(rep: str) -> str:
    # aa/aaa and bb/bbb are the only distinct seeds sharing a class
    if rep in ("aa", "aaa"):
        return "aa"
    if rep in ("bb", "bbb"):
        return "bb"
    return rep


def _sorted_members(ws) -> tuple[str, ...]:
    return tuple(sorted(ws, key=lambda m: (len(m), m)))


def test_01_recognizers_agree_with_closure():
    reduced = [w for w in _every_word(1, EXHAUSTIVE_LEN) if reductions.r1(w) == w]
    mismatches = []
    for cp in pattern_table():
        res = oracle.closure(cp.representative, max(RECOGNIZER_BOUND, len(cp.representative)))
        members = {m for m in res.members
                   if len(m) <= EXHAUSTIVE_LEN and reductions.r1(m) == m}
        for w in reduced:
            if cp.accepts(w) != (w in members):
                mismatches.append((cp.representative, w, cp.accepts(w)))
    assert not mismatches, f"{len(mismatches)} recognizer mismatches, first: {mismatches[:5]}"


def test_02_canonical_forms_are_fixed_points():
    for w in oracle.enumerate_aof(24):
        assert pipeline.eqaof(w) == _canonical(w), w


def test_03_closures_of_distinct_forms_are_disjoint():
    owner: dict[str, str] = {}
    for seed in oracle.enumerate_aof(DISJOINT_AOF_LEN):
        label = _canonical(seed)
        res = oracle.closure(seed, DISJOINT_BOUND)
        for m in res.members:
            prev = owner.setdefault(m, label)
            assert prev == label, f"{m!r} reachable from both {prev!r} and {label!r}"


def test_04_pipeline_agrees_with_oracle():
    # forward: every answer the pipeline gives is confirmed by rewriting
    confirmed = 0
    for u in _every_word(1, 12):
        v = pipeline.eqaof(u)
        if v is None:
            continue
        assert oracle.oracle_equiv(u, v, len(u) + 8) is OracleAnswer.YES, (u, v)
        confirmed += 1
    assert confirmed > 0
    # backward: everything the oracle reaches maps onto the seed's form
    for seed in oracle.enumerate_aof(ORACLE_AOF_LEN):
        expect = _canonical(seed)
        for m in oracle.closure(seed, ORACLE_BOUND).members:
            assert pipeline.eqaof(m) == expect, (seed, m)


def test_05_blocked_inputs_come_back_certified():
    assert pipeline.eqaof("bababb") is None
    for k in range(6):
        assert pipeline.eqaof("ab" * k + "ababaa") is None, k
    assert pipeline.decide_equiv("ababaa", "abababaa") is Verdict.UNKNOWN


def test_06_cube_collapses_to_square():
    assert pipeline.eqaof("aabbaabbaabb") == "aabbaabb"
    assert pipeline.decide_equiv("aabbaabbaabb", "aabbaabb") is Verdict.EQUIVALENT


def test_07_negation_and_reversal_equivariance():
    rng = random.Random(SYMMETRY_SEED)
    sample = ["".join(rng.choices("ab", k=rng.randint(1, SYMMETRY_MAX_LEN)))
              for _ in range(SYMMETRY_SAMPLE)]
    for w in sample:
        r = pipeline.eqaof(w)
        assert pipeline.eqaof(words.negate(w)) == (None if r is None else words.negate(r)), w
        assert pipeline.eqaof(w[::-1]) == (None if r is None else r[::-1]), w
    # the oracle side only scales to short seeds; stride keeps it quick
    short = [w for w in sample if len(w) <= CLOSURE_SYM_MAX_LEN][::CLOSURE_SYM_STRIDE]
    assert short
    for w in short:
        res = oracle.closure(w, len(w) + 6)
        neg = oracle.closure(words.negate(w), len(w) + 6)
        rev = oracle.closure(w[::-1], len(w) + 6)
        assert neg.exhausted == res.exhausted == rev.exhausted, w
        assert neg.members == _sorted_members(words.negate(m) for m in res.members), w
        assert rev.members == _sorted_members(m[::-1] for m in res.members), w


def test_08_uniform_means_reduction_fixed_point():
    # complete_reduction takes a cube-collapsed word, as the descent hands it
    for w in _every_word(1, EXHAUSTIVE_LEN):
        fixed = reductions.complete_reduction(reductions.r1(w)) == w
        assert (frames.frame(w) is not None) == fixed, w


def _timed(w: str) -> float:
    t0 = time.perf_counter()
    pipeline.eqaof(w)
    return time.perf_counter() - t0


def _check_scaling(label: str, meds: dict[int, float]) -> None:
    prev = None
    for n in sorted(meds):
        assert n / meds[n] >= MIN_LETTERS_PER_SEC, (label, n, meds[n])
        if prev is not None:
            assert meds[n] / prev <= MAX_DOUBLING_RATIO, (label, n, meds[n] / prev)
        prev = meds[n]


def test_09_scaling_stays_near_linear():
    # Prefix-nested inputs keep content comparable across sizes, several
    # families keep one unlucky word from skewing a size, and round-robin
    # timing spreads any transient machine load over every size instead of
    # concentrating it in one median.
    bases = ["".join(random.Random(SCALING_SEED + i).choices("ab", k=SCALING_SIZES[-1]))
             for i in range(SCALING_FAMILIES)]
    pipeline.eqaof(bases[0])  # page everything in before sampling
    samples: dict[int, list[float]] = {n: [] for n in SCALING_SIZES}
    for _ in range(SCALING_ROUNDS):
        for base in bases:
            for n in SCALING_SIZES:
                samples[n].append(_timed(base[:n]))
    _check_scaling("random", {n: statistics.median(samples[n]) for n in SCALING_SIZES})

    tm = slow.thue_morse(SCALING_SIZES[-1])
    samples = {n: [] for n in SCALING_SIZES}
    for _ in range(SCALING_TM_ROUNDS):
        for n in SCALING_SIZES:
            samples[n].append(_timed(tm[:n]))
    _check_scaling("thue-morse", {n: statistics.median(samples[n]) for n in SCALING_SIZES})

    run_families = {
        # one giant run of a-doubles, blocked in the first round by its
        # unprotected first site and then matched against the classes
        "(aab)^k": lambda n: "aab" * (n // 3),
        # every double belongs to one run of a-doubles, which complete
        # reduction merges into the first
        "ab(aab)^k a": lambda n: "ab" + "aab" * ((n - 3) // 3) + "a",
        # a short protected run every 7 letters, a-runs and b-runs in turn:
        # the most runs per letter for the site scans and complete reduction
        "ab(aabaababbabbab)^k": lambda n: "ab" + "aabaababbabbab" * ((n - 2) // 14),
    }
    for label, make in run_families.items():
        runs = [make(n) for n in SCALING_RUN_SIZES]
        samples = {len(w): [] for w in runs}  # keyed by true length
        for _ in range(SCALING_TM_ROUNDS):
            for w in runs:
                samples[len(w)].append(_timed(w))
        _check_scaling(label, {n: statistics.median(s) for n, s in samples.items()})
