"""Ancestor descent, rebuild, and the canonical-form entry points.

The descent halves the word each round, and `frame` runs first: it decides
uniformity, and splits a uniform word into its fringe and its pre-image
under the morphism in one call. A uniform word holds no letter cube, is not
in the special class and has no non-uniform tail, so that call is its whole
round. A word `frame` rejects is cube-collapsed, its non-uniform tails are
trimmed, and `frame` runs again if that made it shorter; a word still not
uniform is collapsed completely once every site is found protected. Each
round leaves one `Round` on the tape: its tail reports, the boundary letters
trimming dropped and the fringe letters `frame` split off. The descent stops
on a short word, an exceptional class, or a site unsafe to collapse.

The rebuild runs the same tape backwards from a replacement stop word, and
from the stop word's class representative it builds the class's unique
almost overlap-free member, if there is one. Each round word is
x phi(u) y, with x = L+h, y = t+R and u the round below, unless a
letter-for-letter cube YYY appeared and was collapsed to YY. The descent
keeps the words of the rounds that ran unchanged down to the stop word,
and h phi(u) t is taken back from them whenever u is the word kept below.
A round word has an overlap exactly when u has one or one meets x or y
(the `overlap` note), and the rebuild tests the fringes as it goes, down
to one word left to read whole: the highest round word of at most
`overlap._FLOOR` letters, or the highest that collapsed a cube.

`_form` is that whole path in one call. `eqaof` returns its rebuilt word
when the final check passes, and the CLI's `explain` prints its rounds, one
line per `Round`, and stages, so the two cannot drift apart.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import overlap, words
from .classes import in_special_class, match_S
from .frames import frame
from .reductions import (
    Tail,
    complete_reduction,
    detect_non_reducible_tails,
    is_ab_whole,
    r1,
    tail_reduce,
)


class Round:
    """One descent round, filled in as it runs; word is recorded only when tracing.

    tails are the non-uniform tails the round trims and, on a round that
    stops there, the non-reducible tail left after trimming, all spanned on
    the round word. L/R are the boundary letters trimming drops, h/t the
    fringe letters `frame` splits off. kept is the word the round was handed
    if it and every round below ran on their words unchanged: `frame` split
    it as handed, or r1 returned the stop word as handed.
    """

    __slots__ = ("word", "tails", "L", "R", "h", "t", "kept")

    def __init__(self, word: str | None, kept: str | None = None) -> None:
        self.word, self.kept = word, kept
        self.tails: list[Tail] = []
        self.L = self.R = self.h = self.t = ""


class PrimarySeries(NamedTuple):
    """Record of one descent: its stop word and one Round per round, which the
    rebuild reads back in reverse, all but the final one, taking back a
    round's kept word when the word rebuilt below is the one kept below."""

    anc: str
    rounds: list[Round]

    @property
    def ell(self) -> int:
        return len(self.rounds)


def ancestor(u: str, trace: bool = False) -> PrimarySeries:
    """Run the descent to its stop word."""
    words.check_word(u)
    rounds: list[Round] = []
    while True:
        # A uniform word holds no letter cube, and no aabaab, bbabba or their
        # reversals: each has doubles at both parities. Every special-class
        # word and every non-uniform tail holds one of those four, so r1,
        # in_special_class and tail_reduce would pass a uniform word through
        # unchanged, and frame alone makes its round.
        f = frame(u) if len(u) > 2 else None
        handed = u
        if f is None:
            n, u = len(u), r1(u)
        rnd = Round(u if trace else None, handed)
        rounds.append(rnd)
        if f is None:
            if len(u) <= 2 or in_special_class(u):
                break
            rnd.tails, lo, hi = tail_reduce(u)
            # a tail has at least 8 letters and keeps 7, so a bound moves in from its end of u
            # exactly when that side has a tail
            rnd.L, rnd.R = u[0] if lo else "", u[-1] if hi < len(u) else ""
            up = u[lo:hi]
            # r1 and trimming only shorten, so at n letters up is the word frame just rejected
            f = frame(up) if len(up) < n else None
            if f is None:
                # the pre-trim word stops unless the trimmed one collapses cleanly
                if not is_ab_whole(up):
                    break
                stuck = detect_non_reducible_tails(up)
                if stuck:
                    rnd.tails.extend(tl._replace(start=tl.start + lo, end=tl.end + lo) for tl in stuck)
                    break
                f = frame(complete_reduction(up))
                if f is None:
                    raise RuntimeError(f"complete_reduction left a non-uniform word from {up[:32]!r}")
            del up
            for r in rounds:  # this round changed its word, so the rebuild takes none back above it
                r.kept = None
        rnd.h, x, rnd.t = f
        if 2 * len(x) > len(u):
            raise RuntimeError(f"pre-image of length {len(x)} is over half of {len(u)}")
        u = x
    if u is not handed:  # r1 collapsed a cube in the stop word
        for r in rounds:
            r.kept = None
    return PrimarySeries(u, rounds)


def normalize(w: str, series: PrimarySeries) -> tuple[str, str | None]:
    """Rebuild through a recorded descent, starting from stop word w; also
    the round word to read whole, or None once a fringe above it holds an overlap."""
    base = words.check_word(w)
    for rnd, below in zip(reversed(series.rounds[:-1]), reversed(series.rounds)):
        # h phi(x) t is the word a round kept when x is the word kept below it
        w = rnd.kept if rnd.kept is not None and w == below.kept else rnd.h + words.phi(w) + rnd.t
        n = len(w)
        # YYY, tested against its last third alone
        cube = n % 3 == 0 and w.startswith(y := w[2 * n // 3 :]) and w.startswith(y, n // 3)
        w = rnd.L + (w[: 2 * n // 3] if cube else w) + rnd.R
        n = len(w)
        # a collapsed word is not x phi(u) y, so its fringes say nothing of
        # the rounds below; on the top round only proper factors count, and
        # an overlap of u below is a proper factor of phi(u)
        if cube or n <= overlap._FLOOR:
            base = w
        elif base is not None and overlap.fringe_overlap(
            w, n, len(rnd.L + rnd.h), len(rnd.t + rnd.R), (n - 1 - (rnd is series.rounds[0])) // 2
        ):
            base = None
    return w, base


def _form(u: str, trace: bool = False) -> tuple[PrimarySeries, str | None, str | None, bool]:
    """Descent, class representative, rebuild, and whether the rebuild passes the final check."""
    series = ancestor(u, trace)
    rep = match_S(series.anc)
    if rep is None:
        return series, None, None, False
    v, base = normalize(rep, series)
    if base is v:  # v is read whole, and only its proper factors count
        return series, rep, v, words.is_almost_overlap_free(v)
    return series, rep, v, base is not None and words.is_overlap_free(base)


def eqaof(u: str) -> str | None:
    """Canonical almost overlap-free member of u's class, or None.

    None means the class has no almost overlap-free member at all: the
    descent stopping outside the exceptional classes, or the rebuilt word
    failing the final check, both certify that.
    """
    _, _, v, ok = _form(u)
    return v if ok else None


class Verdict(Enum):
    EQUIVALENT = "EQUIVALENT"
    NOT_EQUIVALENT = "NOT_EQUIVALENT"
    UNKNOWN = "UNKNOWN"


def decide_equiv(u: str, v: str) -> Verdict:
    """Partial equivalence decision through canonical forms."""
    cu = eqaof(u)
    cv = eqaof(v)
    if cu is None and cv is None:
        return Verdict.UNKNOWN
    # when exactly one is None, one class has an almost overlap-free member
    # and the other has none, so they differ
    return Verdict.EQUIVALENT if cu == cv else Verdict.NOT_EQUIVALENT
