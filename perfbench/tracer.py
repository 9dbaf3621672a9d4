"""Spans around the package's layer functions, recorded from outside the package.

``Tracer.install`` rebinds each listed function, in every aofcanon module
that holds it, to a wrapper that records a span: name, start, end, parent
span and call id (the index of the root span it belongs to). Callers inside
the package look those names up at call time, so nested layer calls show as
child spans. ``uninstall`` puts the originals back. Spans live in typed
arrays while the run lasts and are written out once at the end.

A span's self time is its duration minus the durations of its children, so
the self times of all spans add up exactly to the time of the root spans.
"""
from __future__ import annotations

import json
import operator
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

# (module, function) pairs wrapped in the traced run, one group per layer.
LAYERS = {
    "words": ("check_word", "phi_inverse", "is_almost_overlap_free"),
    "overlap": ("has_overlap",),
    "reductions": (
        "r1",
        "detect_non_uniform_tails",
        "tail_reduce",
        "detect_non_reducible_tails",
        "is_ab_whole",
        "complete_reduction",
    ),
    "frames": ("frame",),
    "classes": ("in_special_class", "match_S"),
    "pipeline": ("ancestor", "normalize", "eqaof", "decide_equiv"),
    "oracle": ("closure", "oracle_equiv"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
FIELDS = (("name", "H"), ("start_ns", "q"), ("end_ns", "q"), ("parent", "i"), ("call", "i"))


class Tracer:
    def __init__(self) -> None:
        self.cols = {f: array(code) for f, code in FIELDS}
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._roots = 0
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.cols["name"])

    def parent_name(self) -> str | None:
        """Name of the innermost open span, if any."""
        return SPAN_NAMES[self.cols["name"][self._stack[-1]]] if self._stack else None

    def wrap(self, name: str, fn):
        nid = SPAN_NAMES.index(name)
        observe = _OBSERVERS.get(name)
        names, starts, ends = self.cols["name"], self.cols["start_ns"], self.cols["end_ns"]
        parents, calls, stack = self.cols["parent"], self.cols["call"], self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            if stack:
                parent = stack[-1]
                call = calls[parent]
            else:
                parent = -1
                call = self._roots
                self._roots += 1
            names.append(nid)
            parents.append(parent)
            calls.append(call)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function wherever an aofcanon module holds it."""
        modules = [m for k, m in sys.modules.items() if k == "aofcanon" or k.startswith("aofcanon.")]
        for name in SPAN_NAMES:
            mod, fn_name = name.split(".")
            orig = getattr(sys.modules[f"aofcanon.{mod}"], fn_name)
            wrapped = self.wrap(name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, attr, orig))
                        setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved.clear()

    def aggregate(self) -> dict[str, float]:
        """Self time (s) and calls per span name, plus root span time."""
        dur = array("q", map(operator.sub, self.cols["end_ns"], self.cols["start_ns"]))
        self_ns = array("q", dur)
        root_ns = 0
        for i, p in enumerate(self.cols["parent"]):
            if p >= 0:
                self_ns[p] -= dur[i]
            else:
                root_ns += dur[i]
        total_ns = [0] * len(SPAN_NAMES)
        calls = [0] * len(SPAN_NAMES)
        for nid, s in zip(self.cols["name"], self_ns):
            total_ns[nid] += s
            calls[nid] += 1
        out: dict[str, float] = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[f"{name}.self_s"] = total_ns[nid] / 1e9
            out[f"{name}.calls"] = calls[nid]
        out["trace.root_s"] = root_ns / 1e9
        return out

    def write(self, path: Path) -> None:
        """Header line (JSON), then each column's raw array in FIELDS order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": SPAN_NAMES, "fields": FIELDS, "count": len(self), "byteorder": sys.byteorder}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for field, _ in FIELDS:
                self.cols[field].tofile(f)


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Inverse of Tracer.write."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        cols = {}
        for field, code in header["fields"]:
            cols[field] = array(code)
            cols[field].fromfile(f, header["count"])
    return header, cols


def _observe_ancestor(tr: Tracer, args, series) -> None:
    tr.counters["ancestor.calls"] += 1
    tr.counters["ancestor.rounds"] += series.ell
    tr.counters["ancestor.in_letters"] += len(args[0])
    tr.counters["ancestor.stop_letters"] += len(series.anc)


def _observe_match_s(tr: Tracer, args, rep) -> None:
    tr.counters["match_S.calls"] += 1
    tr.counters["match_S.hits"] += rep is not None


def _observe_aof(tr: Tracer, args, ok) -> None:
    # the final check is the almost overlap-free test eqaof runs on the rebuilt word
    if tr.parent_name() == "pipeline.eqaof":
        tr.counters["final_check.calls"] += 1
        tr.counters["final_check.rejects"] += not ok


def _observe_closure(tr: Tracer, args, result) -> None:
    if tr.parent_name() is None:  # closures run by oracle_equiv are its own work
        tr.counters["closure.calls"] += 1
        tr.counters["closure.members"] += len(result.members)


def _observe_oracle_equiv(tr: Tracer, args, answer) -> None:
    tr.counters["oracle_equiv.calls"] += 1
    tr.counters["oracle_equiv.yes"] += answer.value == "YES"


_OBSERVERS = {
    "pipeline.ancestor": _observe_ancestor,
    "classes.match_S": _observe_match_s,
    "words.is_almost_overlap_free": _observe_aof,
    "oracle.closure": _observe_closure,
    "oracle.oracle_equiv": _observe_oracle_equiv,
}


def ratios(counters: dict[str, float]) -> dict[str, float]:
    """The per-layer ratios; 0 where the base count is 0 on this workload."""

    def div(a: str, b: str) -> float:
        return counters[a] / counters[b] if counters[b] else 0.0

    return {
        "pipeline.ancestor.rounds": div("ancestor.rounds", "ancestor.calls"),
        "pipeline.ancestor.stop_letter_ratio": div("ancestor.stop_letters", "ancestor.in_letters"),
        "classes.match_S.hit_ratio": div("match_S.hits", "match_S.calls"),
        "words.final_check.reject_ratio": div("final_check.rejects", "final_check.calls"),
        "oracle.closure.members_per_call": div("closure.members", "closure.calls"),
        "oracle.oracle_equiv.yes_ratio": div("oracle_equiv.yes", "oracle_equiv.calls"),
    }
