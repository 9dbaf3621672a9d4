"""Overlap detection for binary words, near-linear in the word length.

An overlap is a factor of length 2p+1 whose first p letters repeat twice more
shifted by p (equivalently cYcYc with c a letter and Y possibly empty). The
brute check tries every period at every position. That is quadratic, which is
fine up to a few hundred letters and hopeless at a megabyte.

The fast path exploits the Thue-Morse morphism phi: a -> ab, b -> ba. Facts
used, all for words over {a, b}:

  1. phi(x) is overlap-free exactly when x is (Thue), so an overlap strictly
     inside a morphism image pulls back to the half-length preimage.
  2. Every overlap-free word splits as u * phi(x) * v with u, v drawn from
     {empty, a, b, aa, bb} (Restivo-Salemi). A long word with no such split
     is never overlap-free.
  3. In a morphism image, double letters start only at odd 0-indexed
     positions. This pins how periodic runs can sit against block boundaries.

So: peel the word level by level (w -> x -> ...), keeping the split (u, core,
v) per level, until the remainder is small enough to brute. An overlap in the
original word is then either inside some level's core (caught on a deeper
level, ultimately by the base brute), or it touches a level's u/v fringe.

The fringe cases are the delicate part. An overlap touching both fringes has
near-global period, and there are only a handful of such periods per level,
checked directly. An overlap touching one fringe ends flush with the level
word (or one letter short), i.e. it is a suffix-anchored periodic run, or a
prefix-anchored one, which mirrors to the suffix case. The mirrored chain
alternates its letter map level by level: reverse(phi(x)) equals
phi(negate(reverse(x))), so negate-reverse at one level pairs with plain
reverse at the next and vice versa. Using one fixed map for every level
shears the deeper levels out of alignment.

Suffix-anchored runs of period 2q against core * tau (tau a short appended
context, at first the genuine fringe letters) translate exactly one level
down: the last 4q+1 letters of phi(x) * tau have period 2q precisely when tau
extends x's suffix period as a morphism block sequence (tau[1::2] must negate
tau[0::2]) and the last 2q+1 letters of x * tau' have period q, where
tau' = v' + tau[0::2] picks up the next level's fringe. Descending keeps the
context length at four letters or fewer. Small periods are checked directly
on a materialised tail window, near-global ones directly on the level word.
Odd periods above the direct-check bound cannot survive: a long odd-period
run in a morphism image either carries two double letters at odd distance
(impossible by fact 3) or is alternating on all but a few letters, which
forces aaa or bbb in the level below, and every level was already scanned for
cubes of letters while peeling.

Soundness does not depend on the completeness reasoning above: any anchored
run found at depth d doubles to an anchored run at depth d-1 (phi doubles
periods, and the checked context compatibility makes the appended letters
agree), so a reported overlap is always a genuine factor of the input.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import words

CUT = 64  # below this length, brute force every period
P0 = 16  # anchored periods up to P0 (plus context) are checked directly


def _run_at(b: bytes, p: int, need: int) -> bool:
    # True when some `need` consecutive positions i all have b[i] == b[i+p],
    # i.e. a period-p factor of length need+p. The xor of the two shifted
    # copies has a zero byte exactly where they agree.
    m = len(b) - p
    if m < need:
        return False
    d = int.from_bytes(b[:m], "big") ^ int.from_bytes(b[p:], "big")
    return b"\x00" * need in d.to_bytes(m, "big")


def _overlap_at(b: bytes, p: int) -> bool:
    return _run_at(b, p, p + 1)


def brute_has_overlap(s: str) -> bool:
    """Every period, whole word. Quadratic; base case and reference."""
    b = s.encode()
    for p in range(1, (len(b) - 1) // 2 + 1):
        if _overlap_at(b, p):
            return True
    return False


def has_cube(s: str) -> bool:
    """Some factor YYY, Y nonempty. Quadratic in the worst case.

    Cube-free checking is not on the hot path; the common cases exit on the
    letter-cube scan or on a short period.
    """
    if "aaa" in s or "bbb" in s:
        return True
    b = s.encode()
    for p in range(2, len(b) // 3 + 1):
        if _run_at(b, p, 2 * p):
            return True
    return False


@dataclass(frozen=True, slots=True)
class _Level:
    word: str
    u: str
    core: str
    v: str


_COMBOS_EVEN = ((0, 0), (1, 1), (2, 0), (0, 2), (2, 2))
_COMBOS_ODD = ((0, 1), (1, 0), (1, 2), (2, 1))


def _decompose(w: str) -> tuple[str, str, str] | None:
    """Split w as u * image * v with |u|, |v| <= 2, double-letter fringes."""
    n = len(w)
    d0 = words.first_double(w)
    for lu, lv in _COMBOS_EVEN if n % 2 == 0 else _COMBOS_ODD:
        if lu == 2 and w[0] != w[1]:
            continue
        if lv == 2 and w[n - 1] != w[n - 2]:
            continue
        # A double wholly inside a morphism image starts at an odd offset.
        if lu <= d0 <= n - lv - 2 and (d0 - lu) % 2 == 0:
            continue
        core = w[lu : n - lv]
        if words.is_phi_image(core):
            return w[:lu], core, w[n - lv :]
    return None


def _build_chain(s: str) -> list[_Level] | None:
    """Peel to the base, rejecting (None) as soon as an overlap is certain."""
    levels: list[_Level] = []
    w = s
    while len(w) > CUT:
        if "aaa" in w or "bbb" in w:
            return None
        b = w.encode()
        n = len(b)
        for p in range(max(1, (n - 7) // 2), (n - 1) // 2 + 1):
            if _overlap_at(b, p):
                return None
        dec = _decompose(w)
        if dec is None:
            return None
        u, core, v = dec
        levels.append(_Level(w, u, core, v))
        w = core[0::2]
    levels.append(_Level(w, "", w, ""))
    return levels


def _anchored(t: str, p: int) -> bool:
    # Do the last 2p+1 letters of t have period p?
    if 2 * p + 1 > len(t):
        return False
    tail = t[-(2 * p + 1) :]
    return tail[:-p] == tail[p:]


def _suffix_anchored(chain: list[_Level], j: int, alpha: str) -> bool:
    """Some suffix-anchored periodic run of overlap shape in level j + alpha.

    alpha holds appended context letters: the genuine fringe at the initial
    call, forced period-extension letters at depth. len(alpha) stays <= 4.
    """
    lev = chain[j]
    if j == len(chain) - 1:
        t = lev.word + alpha
        return any(_anchored(t, p) for p in range(1, (len(t) - 1) // 2 + 1))
    core = lev.core
    ta = len(alpha)
    pa = P0 + ta
    small_t = core[-(2 * pa + 2) :] + alpha
    for p in range(1, pa + 1):
        if _anchored(small_t, p):
            return True
    full_t = lev.u + core + alpha
    lo_big = max(pa + 1, (len(core) + ta - 8) // 2)
    for p in range(lo_big, (len(full_t) - 1) // 2 + 1):
        if _anchored(full_t, p):
            return True
    # Middle periods. Even ones halve; the context must read as a block
    # sequence for the run to extend past the core at all. Odd ones are
    # impossible here (see module notes).
    if alpha[1::2] != alpha[0::2].translate(words.NEGATE)[: len(alpha) // 2]:
        return False
    nxt = chain[j + 1]
    return _suffix_anchored(chain, j + 1, nxt.v + alpha[0::2])


def _mirror(chain: list[_Level]) -> list[_Level]:
    # negate-reverse on even levels, plain reverse on odd ones: descending
    # one level swaps the two maps (reverse(phi(x)) = phi(negate(reverse(x)))),
    # and the alternation keeps each mirrored level the exact half-image of
    # the one above it
    def nr(x: str) -> str:
        return x.translate(words.NEGATE)[::-1]

    def rev(x: str) -> str:
        return x[::-1]

    out = []
    for k, l in enumerate(chain):
        f = nr if k % 2 == 0 else rev
        out.append(_Level(f(l.word), f(l.v), f(l.core), f(l.u)))
    return out


def has_overlap(s: str) -> bool:
    n = len(s)
    if n <= CUT:
        return brute_has_overlap(s)
    chain = _build_chain(s)
    if chain is None:
        return True
    if brute_has_overlap(chain[-1].word):
        return True
    mchain: list[_Level] | None = None
    for j in range(len(chain) - 1):
        lev = chain[j]
        if lev.v:
            if _suffix_anchored(chain, j, lev.v):
                return True
            if len(lev.v) == 2 and _suffix_anchored(chain, j, lev.v[:1]):
                return True
        if lev.u:
            if mchain is None:
                mchain = _mirror(chain)
            mv = mchain[j].v
            if _suffix_anchored(mchain, j, mv):
                return True
            if len(mv) == 2 and _suffix_anchored(mchain, j, mv[:1]):
                return True
    return False
