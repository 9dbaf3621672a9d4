"""A fixed unit of work, independent of the package, to measure the machine's speed.

A shared machine runs slow in spells that outlast a run. The unit slows
down with it, so a time taken next to a few units can be scaled to the
speed at which one unit takes REF_NS.
"""
from __future__ import annotations

import random
import re
from time import perf_counter_ns

import workloads

REF_NS = 4_000_000
_TM = workloads.thue_morse(200)
_RANDOM = "".join(random.Random(0).choices("ab", k=1 << 17))
_RUNS = re.compile("aaa+")


def unit() -> int:
    """Interpreted loops plus string scans over 128 KiB, the two kinds of
    work the package does. Returns ns."""
    t0 = perf_counter_ns()
    workloads.has_overlap_ref(_TM)
    _RUNS.sub("aa", _RANDOM.translate(workloads.NEGATE))
    return perf_counter_ns() - t0
