"""Fringe/core split of uniform words.

A uniform word U reads as c * Q1...Qk * d where each Qi is ab or ba and the
fringe letters c, d are empty or single letters. The split is forced: the
parity of the first double-letter position dictates |c| (doubles inside a
morphism image start at odd 0-indexed offsets), and |d| mops up the length
parity. The core is the maximal morphism-image factor in that alignment.
A word is uniform exactly when that core is a morphism image: a double
crossing either end of the core sits at the parity of the first double too.
So the image test on the core is also the uniformity check.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import words
from .errors import NotUniform


@dataclass(frozen=True, slots=True)
class Frame:
    h: str  # left fringe, "" or one letter
    core: str  # morphism image
    t: str  # right fringe, "" or one letter


def _first_double(w: str) -> int:
    """0-indexed start of the leftmost aa or bb factor, or -1."""
    ia = w.find("aa")
    ib = w.find("bb")
    if ia < 0:
        return ib
    if ib < 0:
        return ia
    return min(ia, ib)


def frame(u: str) -> Frame:
    """Split a uniform word into fringe letters and morphism-image core."""
    d0 = _first_double(u)
    lc = (d0 + 1) % 2 if d0 >= 0 else 0
    ld = (len(u) - lc) % 2
    core = u[lc : len(u) - ld]
    if not words.is_phi_image(core):
        raise NotUniform(f"not uniform: {u[:32]!r}")
    return Frame(u[:lc], core, u[len(u) - ld :] if ld else "")
