"""Fringe split and pull-back of uniform words.

A word is uniform when its doubles aa and bb all start at positions of one
parity. A uniform word U reads as h * phi(X) * t, where the fringe letters
h, t are empty or single letters. The split is forced: words._core_offset
gives the offset of U's block pairs, which is |h|, and |t| mops up the
length parity.
X is then every other letter of U between the fringes, read straight off
U, so `h + phi(X) + t` rebuilds U, and a descent round splits and pulls
back in one call. A word that is not uniform has no such split, and `frame`
answers None for it.
"""
from __future__ import annotations

from . import words


def frame(u: str) -> tuple[str, str, str] | None:
    """Split u into (h, x, t) with u == h + phi(x) + t, or None when u is not uniform."""
    lc = words._core_offset(u)
    if lc is None:
        return None
    ld = (len(u) - lc) % 2
    return u[:lc], u[lc : len(u) - ld : 2], u[len(u) - ld :]
