"""Canonical almost overlap-free representatives for words over {a, b}.

The equivalence in play identifies YY with YYY for every factor Y. Each
class holds at most one almost overlap-free word; eqaof finds it in about
linear time or certifies the class has none, and the oracle module checks
small cases the slow exhaustive way.
"""
from .errors import EmptyInput, NotPhiImage, NotR1Reduced, NotUniform, WordError
from .words import (
    check_word,
    is_almost_overlap_free,
    is_cube_free,
    is_letter_alternating,
    is_overlap_free,
    is_phi_image,
    is_uniform,
    is_word,
    negate,
    phi,
    phi_inverse,
)
from .reductions import (
    Tail,
    complete_reduction,
    detect_non_reducible_tails,
    detect_non_uniform_tails,
    find_whole_violations,
    is_ab_whole,
    r1,
    tail_reduce,
)
from .frames import frame
from .classes import ClassPattern, in_special_class, match_S, pattern_table
from .pipeline import PrimarySeries, Verdict, ancestor, decide_equiv, eqaof, normalize
from .oracle import (
    ClosureResult,
    OracleAnswer,
    closure,
    enumerate_aof,
    oracle_equiv,
    pi_neighbours,
)

__version__ = "0.1.0"

__all__ = [
    "EmptyInput",
    "NotPhiImage",
    "NotR1Reduced",
    "NotUniform",
    "WordError",
    "check_word",
    "is_almost_overlap_free",
    "is_cube_free",
    "is_letter_alternating",
    "is_overlap_free",
    "is_phi_image",
    "is_uniform",
    "is_word",
    "negate",
    "phi",
    "phi_inverse",
    "Tail",
    "complete_reduction",
    "detect_non_reducible_tails",
    "detect_non_uniform_tails",
    "find_whole_violations",
    "is_ab_whole",
    "r1",
    "tail_reduce",
    "frame",
    "ClassPattern",
    "in_special_class",
    "match_S",
    "pattern_table",
    "PrimarySeries",
    "Verdict",
    "ancestor",
    "decide_equiv",
    "eqaof",
    "normalize",
    "ClosureResult",
    "OracleAnswer",
    "closure",
    "enumerate_aof",
    "oracle_equiv",
    "pi_neighbours",
    "__version__",
]
