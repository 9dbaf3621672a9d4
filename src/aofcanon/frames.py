"""Fringe split and pull-back of uniform words, and where the rest can hold a cube.

A word is uniform when its doubles aa and bb all start at positions of one
parity. A uniform word U reads as h * phi(X) * t, where the fringe letters
h, t are empty or single letters. The split is forced: U's block pairs are
all ab or ba at one offset, which is |h|, and |t| mops up the length parity.
`frame` finds that offset by comparing U's negated odd letters with its
even letters, and X is a prefix of whichever of the two slices starts at the
offset, so `h + phi(X) + t` rebuilds U, and a descent round splits and
pulls back in one call.

It negates the odd letters `_BLOCK` at a time, so beside the two slices it
holds three blocks at most, never a negated copy of a whole slice, and it
drops the slice that is not X before it cuts X. The first block serves both
offsets, so a short word costs one negation, as it would whole.

A word that is not uniform has no split. For one longer than a scan block
of `_SCAN` pairs, `frame` reads on from where the offset that fit longer
stopped fitting, one scan block at a time, and answers the letter windows
outside which the word holds no letter cube, for `reductions.r1` to search
alone: each block that neither offset fits, and three
letters at each seam where offset 1 fails the block before and offset 0 the
block after, all widened by 4 letters and merged. A cube aaa or bbb holds a
double at each parity, so it spoils both offsets of a block that holds it,
or it crosses such a seam. A run of 3 or more letters that reached a block
some offset fits would hold doubles of one parity there, so one double at
most, and it reaches 2 letters into that block at most: so each such run
lies whole inside one window. Two blocks in a row that neither offset fits
make the rest of the word one window, as on random input. `frame` answers
None when the windows would be the whole word: on every word of one block,
and, before it makes the whole-word slices, on a word that neither offset
fits in its first 32 pairs nor in either of its first two scan blocks.
"""
from __future__ import annotations

from .overlap import NEGATE


# odd letters negated at a time; short words have one block
_BLOCK = 1 << 14
# pairs per block of the window scan
_SCAN = 1 << 11


def _fits(ev: str, od: str, j: int) -> tuple[bool, bool]:
    """Whether offset 0 and offset 1 fit the `_SCAN` pairs from pair j of a
    word whose even and odd letters, or a prefix of them, are ev and od."""
    nod = od[j : j + _SCAN].translate(NEGATE)
    return ev.startswith(nod, j), ev.startswith(nod[: len(ev) - 1 - j], j + 1)


def _fail_early(u: str) -> bool:
    """Whether neither offset fits either of u's first two scan blocks.

    32 pairs are tried first, so a word some offset fits there pays little.
    """
    s = 2 * _SCAN
    return not any(_fits(u[:65:2], u[1:64:2], 0)) and not any(
        f for i in (0, s) for f in _fits(u[i : i + s + 1 : 2], u[i + 1 : i + s : 2], 0)
    )


def _windows(n: int, ev: str, od: str, j: int, f1: bool) -> list[list[int]] | None:
    """The windows of a word of n letters that is not uniform, scanned from
    pair j on; f1 says whether offset 1 is known to fit the pair before it."""
    wins, fit = [], True
    while j < len(od):
        f0, g1 = _fits(ev, od, j)
        if not (f1 or f0):  # a double at letter 2j - 1 and one at 2j may make a cube
            wins.append((2 * j - 1, 2 * j + 2))
        if not (f0 or g1):  # the block, or after another such block the rest of the word
            wins.append((2 * j, 2 * (j + _SCAN) if fit else n))
            if not fit:
                break
        f1, fit, j = g1, f0 or g1, j + _SCAN
    out: list[list[int]] = []
    for a, b in wins:
        if out and a - 4 <= out[-1][1]:
            out[-1][1] = min(b + 4, n)
        else:
            out.append([max(a - 4, 0), min(b + 4, n)])
    return None if out == [[0, n]] else out


def frame(u: str) -> tuple[str, str, str] | list[list[int]] | None:
    """Split u into (h, x, t) with u == h + phi(x) + t when u is uniform.

    Offset 0 is tried first, so a letter-alternating word splits off no h.
    Otherwise the [start, end) letter windows that hold every run of 3 or
    more letters, or None when they would be the whole word.
    """
    if len(u) > 4 * _SCAN and _fail_early(u):
        return None
    ev, od = u[0::2], u[1::2]
    nod = od[:_BLOCK].translate(NEGATE)
    # the window scan starts at pair reach; f1: offset 1 is known to fit the pair before it
    reach, f1 = 0, True
    if ev.startswith(nod):  # pairs (u[2i], u[2i+1]) = (ev[i], od[i])
        n, j = len(od), _BLOCK
        while j < n:
            if not ev.startswith(od[j : j + _BLOCK].translate(NEGATE), j):
                break
            j += _BLOCK
        else:
            del od
            return "", ev[:n], ev[n:]
        reach, f1 = j, False
    if nod.startswith(ev[1 : _BLOCK + 1]):  # pairs (u[2i+1], u[2i+2]) = (od[i], ev[i+1])
        n, j = len(ev) - 1, _BLOCK
        while j < n:
            nod = od[j : j + _BLOCK].translate(NEGATE)
            if not nod.startswith(ev[j + 1 : j + 1 + _BLOCK]):
                break
            j += _BLOCK
        else:
            del ev
            return u[:1], od[:n], od[n:]
        if j > reach:
            reach, f1 = j, True
    return _windows(len(u), ev, od, reach, f1) if len(od) > _SCAN else None
