"""Ancestor descent, rebuild, and the canonical-form entry points.

The descent halves the word each round: cube-collapse, trim non-uniform
tails (remembering the dropped boundary letters), strip the fringe, and pull
back through the morphism. `frame`'s core image test decides uniformity: a
uniform word has no site, letter cube or non-reducible tail, and one `frame`
rejects is collapsed completely once every site is found protected. It stops
on a short word, an exceptional class, or a site unsafe to collapse. Each
round word comes straight out of `r1`, so the round's class and wholeness
tests are the private cores that skip the cube re-check; `eqaof` validates
the stop word once, in `match_S`.

The rebuild runs the same tape backwards from a replacement stop word,
re-wrapping fringes and boundary letters and collapsing a letter-for-letter
cube YYY to YY once per round if one appears. When the stop word is swapped
for its class representative, the rebuilt word is the unique almost
overlap-free member of the input's class, when one exists.

`_form` is that whole path in one call. `eqaof` returns its rebuilt word
when the final check passes, and the CLI's `explain` prints its rounds and
stages, so the two cannot drift apart.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import words
from .classes import _in_special, match_S
from .errors import EmptyInput, NotUniform
from .frames import frame
from .reductions import (
    _is_whole,
    _trim,
    complete_reduction,
    detect_non_reducible_tails,
    detect_non_uniform_tails,
    r1,
)


@dataclass(frozen=True, slots=True)
class PrimarySeries:
    """Record of one descent: arrays are 1-indexed by round (entry k-1).

    L/R hold the boundary letters dropped by tail trimming, h/t the fringe
    letters stripped with the core. The final round's entries are never
    read back by the rebuild. series carries the per-round words when
    tracing.
    """

    ell: int
    anc: str
    L: tuple[str, ...]
    R: tuple[str, ...]
    h: tuple[str, ...]
    t: tuple[str, ...]
    series: tuple[str, ...] | None = None


def ancestor(u: str, trace: bool = False) -> PrimarySeries:
    """Run the descent to its stop word."""
    if u == "":
        raise EmptyInput("ancestor needs a nonempty word")
    words.check_word(u)
    L: list[str] = []
    R: list[str] = []
    h: list[str] = []
    t: list[str] = []
    seen: list[str] = []
    prev_len = None
    while True:
        u = r1(u)
        if prev_len is not None and 2 * len(u) > prev_len:
            raise RuntimeError(f"round word of length {len(u)} is over half of {prev_len}")
        L.append("")
        R.append("")
        h.append("")
        t.append("")
        if trace:
            seen.append(u)
        if len(u) <= 2 or _in_special(u):
            anc = u
            break
        tails = detect_non_uniform_tails(u)
        for tl in tails:
            if tl.side == "left":
                L[-1] = u[0]
            else:
                R[-1] = u[-1]
        up = _trim(u, tails)
        try:
            f = frame(up)
        except NotUniform:  # leave the handler at once: its traceback holds frame's core
            f = None
        if f is None:
            if not _is_whole(up) or detect_non_reducible_tails(up):
                anc = u  # the pre-trim word: trimming is only sound when the
                break  # remainder collapses cleanly
            f = frame(complete_reduction(up))
        h[-1] = f.h
        t[-1] = f.t
        prev_len = len(u)
        u = f.core[::2]  # frame has tested that the core is a morphism image
        del up, f  # the next round holds only its own words, not this one's
    return PrimarySeries(
        len(L), anc, tuple(L), tuple(R), tuple(h), tuple(t), tuple(seen) if trace else None
    )


def normalize(w: str, series: PrimarySeries) -> str:
    """Rebuild through a recorded descent, starting from stop word w."""
    if w == "":
        raise EmptyInput("normalize needs a nonempty word")
    words.check_word(w)
    m = series.ell
    while m > 1:
        m -= 1
        w = series.h[m - 1] + words.phi(w) + series.t[m - 1]
        n = len(w)
        if n % 3 == 0:
            third = n // 3
            if w[: 2 * third] == w[third:]:
                w = w[: 2 * third]
        w = series.L[m - 1] + w + series.R[m - 1]
    return w


def _form(u: str, trace: bool = False) -> tuple[PrimarySeries, str | None, str | None, bool]:
    """Descent, class representative, rebuild, and whether the rebuild passes the final check."""
    series = ancestor(u, trace)
    rep = match_S(series.anc)
    if rep is None:
        return series, None, None, False
    v = normalize(rep, series)
    return series, rep, v, words.is_almost_overlap_free(v)


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
    if cu is not None and cv is not None:
        return Verdict.EQUIVALENT if cu == cv else Verdict.NOT_EQUIVALENT
    if (cu is None) != (cv is None):
        # one class has an almost overlap-free member and the other has
        # none, so they differ
        return Verdict.NOT_EQUIVALENT
    return Verdict.UNKNOWN
