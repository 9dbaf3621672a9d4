"""aofcanon benchmark: time the package's public calls on one seeded workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: long-tm-planted, short-equiv, oracle-closure (see
workloads.py). The package is imported from src/ of the checkout; it is
called in one process on one thread, in a closed loop, cycling through the
seeded inputs until S seconds have passed. Every answer is checked against
an expectation that comes from how the input was built.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
runs a leading slice of the inputs in whole passes, untraced and with every
layer function wrapped (tracer.py) in turn, and reports per-layer self time
and calls per traced pass, the layer ratios and the tracing overhead; the
spans are written to perfbench/out/. A table goes to standard output first; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from array import array
from pathlib import Path
from time import perf_counter_ns

import calibration
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PKG_DIR = SRC / "aofcanon"
OUT = HERE / "out"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# set-up probes: fresh interpreters, each importing and calling several times
SETUP_PROCESSES = 6
SETUP_REPEATS = 4
# cases per pass in the traced run and in the untimed pass before timing
TRACE_PASS = {"long-tm-planted": 16, "short-equiv": 1000, "oracle-closure": 90}
FIRST_PASS = {"long-tm-planted": 3, "short-equiv": 400, "oracle-closure": 21}
# The machine's speed is measured by a calibration unit run between calls,
# at most once per CAL_EVERY_NS; the calls between two units are scaled to
# the speed at which one unit takes calibration.REF_NS, using the CAL_NEAR
# units run nearest to them on either side.
CAL_EVERY_NS = 50_000_000
CAL_NEAR = 5


def import_package():
    """aofcanon from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import aofcanon

    if Path(aofcanon.__file__).resolve().parent != PKG_DIR:
        raise SystemExit(f"error: imported aofcanon from {aofcanon.__file__}, not {PKG_DIR}")
    return aofcanon


def call_loop(
    api, cases, tally, deadline_ns: int | None, cal: list[tuple[int, int, int]] | None = None
) -> tuple[array, int]:
    """Call the cases in order and check each answer.

    With a deadline, cycle until it passes; without one, make one pass.
    With a `cal` list, run a calibration unit between calls whenever
    CAL_EVERY_NS have passed since the last one (or since the start) and
    append (calls made so far, letters so far, unit time).
    Returns per-call latencies (ns) in call order and the input letters
    completed.
    """
    lat = array("q")  # compact, so memory does not grow with the call count
    letters = 0
    last_cal = perf_counter_ns()
    while True:
        for c in cases:
            t0 = perf_counter_ns()
            try:
                result = c.call(api)
            except Exception:  # noqa: BLE001 - a raising call is a failed answer
                t1 = perf_counter_ns()
                if tally.failed == 0:
                    traceback.print_exc()
                tally.record(False, "call raised")
            else:
                t1 = perf_counter_ns()
                try:
                    ok = bool(c.check(result))
                except Exception:  # noqa: BLE001 - an answer of the wrong shape
                    ok = False
                tally.record(ok, "wrong answer")
            lat.append(t1 - t0)
            letters += c.letters
            if cal is not None and t1 - last_cal >= CAL_EVERY_NS:
                cal.append((len(lat), letters, calibration.unit()))
                last_cal = perf_counter_ns()
            if deadline_ns is not None and t1 >= deadline_ns:
                return lat, letters
        if deadline_ns is None:
            return lat, letters


def windows(cal: list[tuple[int, int, int]]):
    """The calls between one calibration unit and the next, as (first call,
    end call, letters, scale). The scale is calibration.REF_NS over the
    median of the units run nearest to the window (CAL_NEAR on either side).
    Calls after the last unit are left out."""
    units = [u for _, _, u in cal]
    start = start_letters = 0
    for j, (end, letters, _) in enumerate(cal):
        near = units[max(0, j - CAL_NEAR) : j + CAL_NEAR + 1]
        yield start, end, letters - start_letters, calibration.REF_NS / statistics.median(near)
        start, start_letters = end, letters


def setup_times(workload: str, items: list[tuple], tally) -> list[float]:
    """Import plus first call, repeated in a few fresh interpreters, each
    repeat scaled to the reference speed (setup_probe.py)."""
    fn, args = workloads.warm_up(workload, items)
    call_file = OUT / f"setup-{workload}.call"
    OUT.mkdir(exist_ok=True)
    call_file.write_text("\n".join([fn, *(f"i:{a}" if isinstance(a, int) else f"s:{a}" for a in args)]))
    scaled, raw = [], []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(call_file), str(SETUP_REPEATS)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        ok = proc.returncode == 0
        tally.record(ok, f"set-up probe failed: {proc.stderr.strip()[-200:]}")
        if ok:
            for line in proc.stdout.splitlines():
                s, r = map(float, line.split())
                scaled.append(s)
                raw.append(r)
    call_file.unlink()
    if raw:
        print(f"  set-up: {len(raw)} repeats, unscaled median {statistics.median(raw):.4f} s")
    return scaled


def end_to_end(pkg, workload: str, items, cases, tally, seconds: float, peak_alloc_mb: float) -> dict[str, float]:
    """Timings scaled to a reference machine speed measured in the same run.

    A shared machine runs slow in spells; the calibration units slow down
    with it, so scaling each call by the units run around it keeps the
    figures comparable from run to run. Unscaled figures are printed too.
    """
    setup = setup_times(workload, items, tally)
    if not setup:
        raise SystemExit("error: every set-up probe failed")
    gc.collect()
    cal: list[tuple[int, int, int]] = []
    lat, letters = call_loop(pkg, cases, tally, perf_counter_ns() + int(seconds * 1e9), cal)
    scaled, ops_rates, letter_rates = [], [], []
    for start, end, window_letters, scale in windows(cal):
        window = [t * scale for t in lat[start:end]]
        scaled += window
        window_s = sum(window) / 1e9
        ops_rates.append((end - start) / window_s)
        letter_rates.append(window_letters / window_s)
    metrics = {
        "letters_per_s": statistics.median(letter_rates),
        "ops_per_s": statistics.median(ops_rates),
        "latency_p50_ms": statistics.median(scaled) / 1e6,
        "setup_s": statistics.median(setup),
        "peak_alloc_mb": peak_alloc_mb,
    }
    busy_s = sum(lat) / 1e9
    units = [u for _, _, u in cal]
    print(f"workload {workload}: {len(cases)} inputs, {len(lat)} timed calls, {letters} letters, {busy_s:.3f} s in calls")
    print(
        f"  calibration unit: median {statistics.median(units) / 1e6:.4f} ms over {len(units)} runs"
        f" (reference {calibration.REF_NS / 1e6} ms); scaled time in {len(ops_rates)} windows {sum(scaled) / 1e9:.3f} s"
    )
    line = f"  unscaled: {len(lat) / busy_s:.4f} ops/s, p50 {statistics.median(lat) / 1e6:.4f} ms"
    for pct in (90, 99):
        if len(lat) >= 10 * 100 / (100 - pct):  # ten samples beyond the percentile
            q = statistics.quantiles(scaled, n=100)[pct - 1]
            line += f"; scaled p{pct} {q / 1e6:.4f} ms"
    print(line)
    return metrics


def per_layer(pkg, workload: str, seed: int, cases, tally, seconds: float) -> dict[str, float]:
    """Untraced and traced passes in turn, so both see the same machine;
    per-layer figures are per traced pass."""
    cases = cases[: TRACE_PASS[workload]]
    gc.collect()
    tr = tracer.Tracer()
    plain, traced = [], []
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while not traced or perf_counter_ns() < deadline:
        plain.append(sum(call_loop(pkg, cases, tally, None)[0]))
        tr.install()
        try:
            traced.append(sum(call_loop(pkg, cases, tally, None)[0]))
        finally:
            tr.uninstall()
    totals = tr.aggregate()
    n = len(traced)
    metrics = {k: v / n for k, v in totals.items()}
    ratios = tracer.ratios(tr.counters)
    metrics.update(ratios)
    metrics["trace.overhead_ratio"] = statistics.median(t / p for t, p in zip(traced, plain))
    path = OUT / f"spans-{workload}-seed{seed}.bin"
    tr.write(path)

    root = metrics["trace.root_s"]
    print(f"workload {workload}: {len(cases)} calls per pass, {n} untraced and {n} traced passes in turn")
    print(f"  {len(tr)} spans written to {path.relative_to(HERE.parent)}")
    print(f"  {'span':<40} {'self_s/pass':>12} {'calls/pass':>11} {'share':>7}")
    for name in tracer.SPAN_NAMES:
        s, c = metrics[f"{name}.self_s"], metrics[f"{name}.calls"]
        print(f"  {name:<40} {s:>12.6f} {c:>11.1f} {s / root if root else 0:>7.1%}")
    self_sum = sum(metrics[f"{name}.self_s"] for name in tracer.SPAN_NAMES)
    print(f"  sum of self times {self_sum:.6f} s/pass; root spans {root:.6f} s/pass")
    for name in (*ratios, "trace.overhead_ratio"):
        print(f"  {name:<40} {metrics[name]:.6f}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not (PKG_DIR / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {PKG_DIR}; run from a checkout of the repository")

    items = workloads.generate(a.workload, a.seed)
    cases = workloads.build_cases(a.workload, items)
    # memory the package allocates, inputs excluded: its import, the warm-up
    # call and an untimed first pass over the leading inputs
    tracemalloc.start()
    pkg = import_package()
    tally = workloads.Tally()
    fn, args = workloads.warm_up(a.workload, items)
    workloads.checked_call(tally, f"warm-up {fn}", getattr(pkg, fn), *args)
    call_loop(pkg, cases[: FIRST_PASS[a.workload]], tally, None)
    peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    if a.trace:
        metrics, listed = per_layer(pkg, a.workload, a.seed, cases, tally, a.seconds), SPEC["per_layer"]
    else:
        metrics, listed = end_to_end(pkg, a.workload, items, cases, tally, a.seconds, peak_alloc_mb), SPEC["end_to_end"]
    workloads.subset_checks(a.workload, items, pkg, tally)

    print(f"  checked {tally.attempted} answers, {tally.failed} failed, fail_ratio {tally.failed / tally.attempted:.6f}")
    for note in tally.notes:
        print(f"  failure: {note}")
    if not a.trace:
        for m in listed:
            print(f"  {m['name']:<16} {metrics[m['name']]:>16.6f} {m['unit']}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
