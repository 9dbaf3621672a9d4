"""Seeded inputs, expected answers and answer checks for the three workloads.

This module imports only the standard library. Expected answers come from
how each input is built, not from the package under test:

- a Thue-Morse factor is overlap-free, so it is the unique almost
  overlap-free member of its class and eqaof must return it exactly, also
  for a copy with planted cubes (YY rewritten to YYY stays in the class);
- two distinct Thue-Morse factors lie in distinct classes;
- a word and its planted twin lie in one class;
- the words (ab)^k ababaa lie in classes with no almost overlap-free member.

The package is reached only through an ``api`` object with the attributes
``eqaof``, ``decide_equiv``, ``closure`` and ``oracle_equiv``, so the checks
can be pointed at deliberately wrong stand-ins.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

NEGATE = str.maketrans("ab", "ba")
LONG_LEN = 1 << 20
OUTPUT_CHECK_MAX = 512  # outputs up to this length get the letter-by-letter check
SUBSET = 64  # leading inputs that get the untimed checks

WORKLOADS = ("long-tm-planted", "short-equiv", "oracle-closure")
TM_PERIODS = tuple(1 << j for j in range(9))  # planted cube periods 2^j, j <= 8
ORACLE_LENGTHS = range(6, 11)
SHORT_KINDS = ("tm-planted", "tm-distinct", "random-twin", "blocked")
_SHORT_EXPECT: dict[str, Callable[[str], bool]] = {
    "tm-planted": lambda v: v == "EQUIVALENT",
    "tm-distinct": lambda v: v == "NOT_EQUIVALENT",
    "random-twin": lambda v: v != "NOT_EQUIVALENT",
    "blocked": lambda v: v == "UNKNOWN",
}


def thue_morse(n: int) -> str:
    """Prefix of length n of the Thue-Morse word abbabaab..."""
    t = "a"
    while len(t) < n:
        t += t.translate(NEGATE)
    return t[:n]


_BITS_TO_LETTERS = str.maketrans("01", "ab")


def random_word(rng: random.Random, n: int) -> str:
    """n independent uniform letters."""
    return format(rng.getrandbits(n), f"0{n}b").translate(_BITS_TO_LETTERS)


def has_overlap_ref(w: str) -> bool:
    """Letter-by-letter overlap test: some p with w[i] == w[i-p] p+1 times running."""
    n = len(w)
    for p in range(1, (n - 1) // 2 + 1):
        run = 0
        for i in range(p, n):
            if w[i] == w[i - p]:
                run += 1
                if run > p:
                    return True
            else:
                run = 0
    return False


def is_aof_ref(w: str) -> bool:
    """Almost overlap-free: both maximal proper factors are overlap-free."""
    return len(w) <= 2 or not (has_overlap_ref(w[:-1]) or has_overlap_ref(w[1:]))


def _find_square(w: str, p: int, start: int) -> int | None:
    """Leftmost i >= start with w[i:i+p] == w[i+p:i+2p]."""
    for i in range(start, len(w) - 2 * p + 1):
        if w.startswith(w[i : i + p], i + p):
            return i
    return None


def plant_cubes(w: str, rng: random.Random, count: int, periods: tuple[int, ...]) -> str:
    """Rewrite `count` disjoint squares YY of w, |Y| drawn from periods, to YYY."""
    chosen: list[tuple[int, int]] = []
    for _ in range(100 * count + 100):
        if len(chosen) == count:
            break
        p = rng.choice(periods)
        if 2 * p > len(w):
            continue
        i = _find_square(w, p, rng.randrange(len(w) - 2 * p + 1))
        if i is None or any(i < j + 2 * q and j < i + 2 * p for j, q in chosen):
            continue
        chosen.append((i, p))
    else:
        raise ValueError(f"found only {len(chosen)} of {count} disjoint squares")
    for i, p in sorted(chosen, reverse=True):
        w = w[: i + p] + w[i : i + p] + w[i + p :]
    return w


def _tm_factor(rng: random.Random, tm: str, n: int) -> str:
    start = rng.randrange(len(tm) - n + 1)
    return tm[start : start + n]


def generate(workload: str, seed: int, count: int | None = None) -> list[tuple]:
    """The workload's inputs for this seed; a shorter count gives a prefix."""
    rng = random.Random(f"aofcanon-bench/{workload}/{seed}")
    if workload == "long-tm-planted":
        # (planted, base) with 0, 16 or 64 planted cubes of period 2^j, j <= 8
        tm = thue_morse(2 * LONG_LEN)
        out = []
        for k in range(count or 16):
            base = _tm_factor(rng, tm, LONG_LEN)
            out.append((plant_cubes(base, rng, (0, 16, 64)[k % 3], TM_PERIODS), base))
        return out
    if workload == "short-equiv":
        # (kind, u, v), kinds interleaved in equal shares
        tm = thue_morse(1 << 16)
        out = []
        for k in range(count or 4000):
            kind = SHORT_KINDS[k % 4]
            n = rng.randint(8, 256)
            if kind == "tm-planted":
                base = _tm_factor(rng, tm, n)
                periods = tuple(q for q in TM_PERIODS if 2 * q <= n)
                out.append((kind, plant_cubes(base, rng, rng.randint(1, 1 + n // 96), periods), base))
            elif kind == "tm-distinct":
                u = _tm_factor(rng, tm, n)
                v = u
                while v == u:
                    v = _tm_factor(rng, tm, rng.randint(8, 256))
                out.append((kind, u, v))
            elif kind == "random-twin":
                r = random_word(rng, n)
                out.append((kind, r, plant_cubes(r, rng, rng.randint(1, 1 + n // 96), (1, 2, 3, 4))))
            else:
                j, k2 = rng.sample(range(1, 126), 2)
                out.append((kind, "ab" * j + "ababaa", "ab" * k2 + "ababaa"))
        return out
    if workload == "oracle-closure":
        # (seed word, twin with one planted cube of period <= 6) for every
        # word of ORACLE_LENGTHS letters, in seeded order; a run cycles
        # through all of them, so its figures do not hang on the words drawn
        words = [format(x, f"0{n}b").translate(_BITS_TO_LETTERS) for n in ORACLE_LENGTHS for x in range(1 << n)]
        rng.shuffle(words)
        out = []
        for w in words[:count]:
            squares = [
                (i, p)
                for p in range(1, 7)
                for i in range(len(w) - 2 * p + 1)
                if w[i : i + p] == w[i + p : i + 2 * p]
            ]
            i, p = rng.choice(squares)
            out.append((w, w[: i + p] + w[i : i + p] + w[i + p :]))
        return out
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Tally:
    """Checked calls and failures; the first few failures keep a note."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


@dataclass(frozen=True, slots=True)
class Case:
    """One timed operation: a call into the api, its input letters, its answer check."""

    call: Callable[[object], object]
    letters: int
    check: Callable[[object], bool]


def _eq(expected):
    return lambda r: r == expected


def _verdict(kind: str):
    ok = _SHORT_EXPECT[kind]
    return lambda r: ok(r.value)


def _oracle_case(w: str, twin: str) -> Case:
    # one operation: the closure of w, then the oracle on w and its twin
    bound = len(w) + 6
    return Case(
        lambda api: (api.closure(w, bound), api.oracle_equiv(w, twin, bound)),
        2 * len(w) + len(twin),
        lambda r: twin in r[0].members and r[1].value == "YES",
    )


def warm_up(workload: str, items: list[tuple]) -> tuple[str, tuple]:
    """(api function, arguments) of the call made once before timing."""
    if workload == "short-equiv":
        return "decide_equiv", items[0][1:]
    if workload == "oracle-closure":
        # the first shortest word: a closure's cost grows fast with length
        w = next(w for w, _ in items if len(w) == ORACLE_LENGTHS[0])
        return "closure", (w, len(w) + 6)
    return "eqaof", (items[0][0],)


def checked_call(tally: Tally, what: str, fn, *args):
    """Call outside the timed loop; an exception counts as a failed check."""
    try:
        return True, fn(*args)
    except Exception as exc:  # noqa: BLE001 - every error is a failed answer
        tally.record(False, f"{what}: {type(exc).__name__}: {exc}")
        return False, None


def build_cases(workload: str, items: list[tuple]) -> list[Case]:
    """Timed calls with their checks."""
    if workload == "long-tm-planted":
        return [Case(_eqaof_of(p), len(p), _eq(base)) for p, base in items]
    if workload == "short-equiv":
        return [Case(_equiv_of(u, v), len(u) + len(v), _verdict(k)) for k, u, v in items]
    if workload == "oracle-closure":
        return [_oracle_case(w, twin) for w, twin in items]
    raise ValueError(f"unknown workload {workload!r}")


def _eqaof_of(w: str):
    return lambda api: api.eqaof(w)


def _equiv_of(u: str, v: str):
    return lambda api: api.decide_equiv(u, v)


def subset_checks(workload: str, items: list[tuple], api, tally: Tally) -> None:
    """Untimed checks on a fixed leading subset of the inputs.

    Short outputs must pass the letter-by-letter almost overlap-free test,
    and eqaof must agree on a word and its planted twin.
    """

    def rep(w: str, what: str):
        ok, r = checked_call(tally, what, api.eqaof, w)
        if ok:
            tally.record(r is None or (len(r) > OUTPUT_CHECK_MAX or is_aof_ref(r)), f"{what} not aof")
        return ok, r

    if workload == "short-equiv":
        for n, (kind, u, v) in enumerate(items[:SUBSET]):
            oku, ru = rep(u, f"eqaof(u {n})")
            okv, rv = rep(v, f"eqaof(v {n})")
            if not (oku and okv):
                continue
            if kind == "tm-planted":
                tally.record(ru == v and rv == v, f"pair {n}: planted factor not mapped to base")
            elif kind == "tm-distinct":
                tally.record(ru == u and rv == v, f"pair {n}: factor not its own representative")
            elif kind == "random-twin":
                tally.record(ru == rv, f"pair {n}: twin in another class")
            else:
                tally.record(ru is None and rv is None, f"pair {n}: blocked word got a representative")
    elif workload == "oracle-closure":
        for n, (w, twin) in enumerate(items[:SUBSET]):
            okw, rw = rep(w, f"eqaof(seed {n})")
            okt, rt = rep(twin, f"eqaof(twin {n})")
            if okw and okt:
                tally.record(rw == rt, f"seed {n}: twin in another class")
