"""Repeat the benchmark over ten seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py [--trace] [--write perfbench/baseline.json]

For every workload in BENCHMARK.json it runs perfbench/run.py once per seed
1-10 for run_seconds, with tracing off, one run at a time, and prints each
end-to-end metric's median, quartiles and spread: the distance between the
quartiles (statistics.quantiles with n=4) as a share of the median. With
--trace it also makes one traced run per workload with seed 1. With --write
it stores all of that as JSON, which is how baseline.json is made.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed answers\n{proc.stdout}")
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true", help=f"add one traced run per workload, seed {TRACE_SEED}")
    ap.add_argument("--write", type=Path, help="store the summary as JSON here")
    a = ap.parse_args()

    report: dict = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.python_implementation()} {platform.python_version()}",
        "seeds": list(SEEDS),
        "seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    for w in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(w, s, 0) for s in SEEDS]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        print(f"{w}: {entry['attempted']} answers checked, {entry['failed']} failed")
        for m in SPEC["end_to_end"]:
            s = summarise([r["metrics"][m["name"]]["value"] for r in runs])
            s["unit"] = m["unit"]
            entry["metrics"][m["name"]] = s
            flag = "" if s["spread"] < m["bound"] / 3 else "  <-- spread above a third of the bound"
            print(
                f"  {m['name']:<16} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} q3 {s['q3']:<14.6g}"
                f" spread {s['spread']:.4f} (bound {m['bound']}){flag}"
            )
        if a.trace:
            traced = run_once(w, TRACE_SEED, 1)
            entry["traced"] = {"seed": TRACE_SEED, "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][w] = entry
        sys.stdout.flush()
    if a.write:
        a.write.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
