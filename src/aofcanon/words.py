"""Basic word operations over the alphabet {a, b}.

Words are plain Python strings. The functions the package root exports
check their words and raise WordError on anything else. `check_word` is the
one entry check, for a nonempty word: the CLI, the oracle's closures and the
descent's entry points `ancestor` and `normalize` call it, and the stage
functions in the modules take words over {a, b} as the descent hands them,
so the descent checks each word once, where it enters.
"""
from __future__ import annotations

from .errors import EmptyInput, WordError
from . import overlap


def check_word(w: str) -> str:
    if w == "":
        raise EmptyInput("empty word: a nonempty word is needed")
    if not overlap.is_word(w):
        raise WordError(f"not a word over {{a,b}}: {w[:32]!r}")
    return w


def negate(w: str) -> str:
    """Exchange a and b throughout."""
    return w.translate(overlap.NEGATE)


# a -> byte 0xab, b -> byte 0xba, whose hex digits are the letters' images
_PHI = bytes.maketrans(b"ab", b"\xab\xba")


def phi(w: str) -> str:
    """Thue-Morse morphism: a -> ab, b -> ba."""
    return w.encode().translate(_PHI).hex()


def phi_inverse(w: str) -> str:
    """Unique preimage under phi. Raises WordError when none exists.

    Images are exactly the even-length words whose block pairs are ab or ba.
    """
    x = w[0::2]
    if len(w) % 2 or negate(x) != w[1::2]:
        raise WordError(f"not a morphism image: {w[:32]!r}...")
    return x


def is_overlap_free(w: str) -> bool:
    """No factor of length 2p+1 with period p (equivalently no cYcYc)."""
    return not overlap.has_overlap(w)


def is_almost_overlap_free(w: str) -> bool:
    """Every proper factor is overlap-free; w itself may be an overlap (aaa).

    One linear-time `overlap.has_overlap` call (the `overlap` module note).
    """
    return not overlap.has_overlap(w, proper=True)
