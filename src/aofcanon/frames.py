"""Fringe split and pull-back of uniform words.

A word is uniform when its doubles aa and bb all start at positions of one
parity. A uniform word U reads as h * phi(X) * t, where the fringe letters
h, t are empty or single letters. The split is forced: U's block pairs are
all ab or ba at one offset, which is |h|, and |t| mops up the length parity.
`frame` finds that offset by comparing U's negated even letters with its
odd letters, and X is a prefix of whichever of the two slices starts at the
offset, so `h + phi(X) + t` rebuilds U, and a descent round splits and
pulls back in one call. A word that is not uniform has no such split, and
`frame` answers None for it.
"""
from __future__ import annotations

from . import overlap


def frame(u: str) -> tuple[str, str, str] | None:
    """Split u into (h, x, t) with u == h + phi(x) + t, or None when u is not uniform.

    Offset 0 is tried first, so a letter-alternating word splits off no h.
    """
    ev, od = u[0::2], u[1::2]
    nev = ev.translate(overlap.NEGATE)
    if nev.startswith(od):  # pairs (u[2i], u[2i+1])
        return "", ev[: len(od)], ev[len(od) :]
    if od.startswith(nev[1:]):  # pairs (u[2i+1], u[2i+2])
        return ev[:1], od[: len(ev) - 1], od[len(ev) - 1 :]
    return None
