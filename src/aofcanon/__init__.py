"""Canonical almost overlap-free representatives for words over {a, b}.

The equivalence in play identifies YY with YYY for every factor Y. Each
class holds at most one almost overlap-free word; eqaof finds it in about
linear time or certifies the class has none, and the oracle module checks
small cases the slow exhaustive way.
"""
from .errors import WordError
from .words import is_almost_overlap_free, is_overlap_free
from .pipeline import Verdict, decide_equiv, eqaof
from .oracle import OracleAnswer, closure, enumerate_aof, oracle_equiv

__version__ = "0.1.0"
