"""Fringe split and pull-back of uniform words.

A word is uniform when its doubles aa and bb all start at positions of one
parity. A uniform word U reads as h * phi(X) * t, where the fringe letters
h, t are empty or single letters. The split is forced: U's block pairs are
all ab or ba at one offset, which is |h|, and |t| mops up the length parity.
`frame` finds that offset by comparing U's negated odd letters with its
even letters, and X is a prefix of whichever of the two slices starts at the
offset, so `h + phi(X) + t` rebuilds U, and a descent round splits and
pulls back in one call. A word that is not uniform has no such split, and
`frame` answers None for it.

It negates the odd letters `_BLOCK` at a time, so beside the two slices it
holds three blocks at most, never a negated copy of a whole slice, and it
drops the slice that is not X before it cuts X. A word that is not uniform is rejected at
the first block where each offset meets a bad pair, and no later block is
negated. The first block serves both offsets, so a short word costs one
negation, as it would whole.
"""
from __future__ import annotations

from . import overlap


# odd letters negated at a time; short words have one block
_BLOCK = 1 << 14


def frame(u: str) -> tuple[str, str, str] | None:
    """Split u into (h, x, t) with u == h + phi(x) + t, or None when u is not uniform.

    Offset 0 is tried first, so a letter-alternating word splits off no h.
    """
    ev, od = u[0::2], u[1::2]
    nod = od[:_BLOCK].translate(overlap.NEGATE)
    if ev.startswith(nod):  # pairs (u[2i], u[2i+1]) = (ev[i], od[i])
        n, j = len(od), _BLOCK
        while j < n:
            if not ev.startswith(od[j : j + _BLOCK].translate(overlap.NEGATE), j):
                break
            j += _BLOCK
        else:
            del od
            return "", ev[:n], ev[n:]
    if nod.startswith(ev[1 : _BLOCK + 1]):  # pairs (u[2i+1], u[2i+2]) = (od[i], ev[i+1])
        n, j = len(ev) - 1, _BLOCK
        while j < n:
            nod = od[j : j + _BLOCK].translate(overlap.NEGATE)
            if not nod.startswith(ev[j + 1 : j + 1 + _BLOCK]):
                return None
            j += _BLOCK
        del ev
        return u[:1], od[:n], od[n:]
    return None
