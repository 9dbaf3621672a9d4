"""Self-tests for the benchmark: generators, answer checks, tracing, output.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMALL = {"long-tm-planted": 3, "short-equiv": 40, "oracle-closure": 18}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    n = SMALL[workload]
    first = workloads.generate(workload, 7, count=n)
    assert first == workloads.generate(workload, 7, count=n)
    assert first != workloads.generate(workload, 8, count=n)
    assert len(first) == n


def _brute_has_overlap(w: str) -> bool:
    return any(
        w[i : i + p + 1] == w[i + p : i + 2 * p + 1]
        for p in range(1, len(w))
        for i in range(len(w) - 2 * p)
    )


def test_reference_overlap_check_matches_definition():
    for n in range(1, 11):
        for letters in itertools.product("ab", repeat=n):
            w = "".join(letters)
            assert workloads.has_overlap_ref(w) == _brute_has_overlap(w), w


def test_reference_aof_check_on_known_words():
    assert workloads.is_aof_ref(workloads.thue_morse(300))
    assert workloads.is_aof_ref("aaa") and workloads.is_aof_ref("aabaa")
    assert not workloads.is_aof_ref("abababa")
    assert not workloads.is_aof_ref("aaaa")


def test_short_inputs_are_built_as_described():
    kinds = set()
    for kind, u, v in workloads.generate("short-equiv", 3, count=200):
        kinds.add(kind)
        if kind == "tm-planted":
            assert len(u) > len(v) and workloads.is_aof_ref(v)
        elif kind == "tm-distinct":
            assert u != v and workloads.is_aof_ref(u) and workloads.is_aof_ref(v)
        elif kind == "random-twin":
            assert len(v) > len(u)
        else:
            assert u != v and u.endswith("ababaa") and set(u[:-6].split("ab")) == {""}
    assert kinds == set(workloads.SHORT_KINDS)


def test_oracle_twin_is_one_planted_cube():
    for w, twin in workloads.generate("oracle-closure", 5, count=27):
        p = len(twin) - len(w)
        assert 1 <= p <= 6
        assert any(twin == w[: i + p] + w[i : i + p] + w[i + p :] for i in range(len(w) - 2 * p + 1))


def _one_pass(workload: str, api, items) -> workloads.Tally:
    tally = workloads.Tally()
    cases = workloads.build_cases(workload, items)
    run.call_loop(api, cases, tally, None)
    return tally


def _identity_eqaof(w):
    return w


def test_checker_fails_planted_input_mapped_to_itself():
    items = workloads.generate("long-tm-planted", 1, count=3)  # 0, 16, 64 planted cubes
    tally = _one_pass("long-tm-planted", SimpleNamespace(eqaof=_identity_eqaof), items)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_checker_fails_wrong_verdicts():
    items = workloads.generate("short-equiv", 1, count=40)
    always_equal = SimpleNamespace(decide_equiv=lambda u, v: SimpleNamespace(value="EQUIVALENT"))
    tally = _one_pass("short-equiv", always_equal, items)
    assert (tally.attempted, tally.failed) == (40, 20)  # tm-distinct and blocked pairs


def test_checker_fails_closure_without_twin_and_raising_calls():
    items = workloads.generate("oracle-closure", 1, count=9)
    lonely = SimpleNamespace(
        closure=lambda w, bound: SimpleNamespace(members=(w,)),
        oracle_equiv=lambda u, v, bound: SimpleNamespace(value="YES"),
    )
    assert _one_pass("oracle-closure", lonely, items).failed == 9

    def boom(*args):
        raise RuntimeError("boom")

    tally = _one_pass("short-equiv", SimpleNamespace(decide_equiv=boom), workloads.generate("short-equiv", 1, count=4))
    assert (tally.attempted, tally.failed) == (4, 4)


def test_subset_checks_fail_a_wrong_representative():
    items = workloads.generate("short-equiv", 2, count=8)
    tally = workloads.Tally()
    workloads.subset_checks("short-equiv", items, SimpleNamespace(eqaof=_identity_eqaof), tally)
    assert tally.failed > 0


def test_traced_self_times_sum_to_root_time(tmp_path):
    pkg = run.import_package()
    original = pkg.eqaof
    words = [workloads.thue_morse(500)[7:400], "aabbaabbaabb", "ab" * 30 + "ababaa"]
    tr = tracer.Tracer()
    tr.install()
    try:
        for w in words:
            pkg.decide_equiv(w, w + "a")
        pkg.oracle.oracle_equiv("abaab", "abaabaab", 12)
    finally:
        tr.uninstall()
    assert pkg.eqaof is original and pkg.pipeline.eqaof is original
    totals = tr.aggregate()
    self_sum = sum(totals[f"{n}.self_s"] for n in tracer.SPAN_NAMES)
    assert self_sum == pytest.approx(totals["trace.root_s"], rel=1e-9)
    assert totals["pipeline.decide_equiv.calls"] == 3 and totals["pipeline.eqaof.calls"] == 6
    assert totals["oracle.oracle_equiv.calls"] == 1 and totals["oracle.closure.calls"] >= 1
    assert totals["reductions.r1.calls"] > 0 and totals["overlap.has_overlap.calls"] > 0

    path = tmp_path / "spans.bin"
    tr.write(path)
    header, cols = tracer.read_spans(path)
    assert header["count"] == len(tr) and list(cols["parent"]) == list(tr.cols["parent"])
    roots = [i for i, p in enumerate(cols["parent"]) if p < 0]
    assert [cols["call"][i] for i in roots] == [0, 1, 2, 3]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_prints_result_line_last():
    proc = _run(ROOT, "--workload", "short-equiv", "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in run.SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_package_source_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = _run(tmp_path, "--workload", "short-equiv", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
