"""Basic word operations over the alphabet {a, b}.

Words are plain Python strings. The functions the package root exports
check their words and raise WordError on anything else. The stage functions
in the modules take words over {a, b} as the descent hands them and leave
the check to their caller, apart from the entry points `ancestor` and
`normalize`, so the descent checks each word once, where it enters.
"""
from __future__ import annotations

from .errors import EmptyInput, WordError
from . import overlap


def check_word(w: str) -> str:
    if not overlap.is_word(w):
        raise WordError(f"not a word over {{a,b}}: {w[:32]!r}")
    return w


def _check_nonempty(w: str) -> str:
    """check_word for the operations that need a nonempty word."""
    if w == "":
        raise EmptyInput("empty word: a nonempty word is needed")
    return check_word(w)


def negate(w: str) -> str:
    """Exchange a and b throughout."""
    return w.translate(overlap.NEGATE)


# a -> byte 0xab, b -> byte 0xba, whose hex digits are the letters' images
_PHI = bytes.maketrans(b"ab", b"\xab\xba")


def phi(w: str) -> str:
    """Thue-Morse morphism: a -> ab, b -> ba."""
    return w.encode().translate(_PHI).hex()


def _core_offset(w: str) -> int | None:
    """0 or 1, the offset at which w's block pairs are all ab or ba, or None.

    Offset 0 is tried first, so a letter-alternating word gets 0.
    """
    nev = negate(w[0::2])
    od = w[1::2]
    if nev.startswith(od):  # pairs (w[2i], w[2i+1])
        return 0
    if od.startswith(nev[1:]):  # pairs (w[2i+1], w[2i+2])
        return 1
    return None


def phi_inverse(w: str) -> str:
    """Unique preimage under phi. Raises WordError when none exists.

    Images are exactly the even-length words whose block pairs are ab or ba.
    """
    if len(w) % 2 or _core_offset(w) != 0:
        raise WordError(f"not a morphism image: {w[:32]!r}...")
    return w[0::2]


def is_overlap_free(w: str) -> bool:
    """No factor of length 2p+1 with period p (equivalently no cYcYc)."""
    return not overlap.has_overlap(w)


def is_almost_overlap_free(w: str) -> bool:
    """Every proper factor is overlap-free; w itself may be an overlap (aaa).

    One linear-time `overlap.has_overlap` call (the `overlap` module note).
    """
    return not overlap.has_overlap(w, proper=True)
