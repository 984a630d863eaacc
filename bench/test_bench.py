"""Tests of the benchmark itself: helpers, BENCHMARK.json and smoke runs.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from spans import ContextThreadPool, Tracer, self_time, self_times  # noqa: E402
from stats import Timings, percentile, samples_beyond  # noqa: E402

with open(run.SPEC, encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([], 50) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_samples_beyond_and_tail_flags():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(0, 90) == 0
    timings = Timings()
    timings.record("a", list(range(100)), 90)
    timings.record("b", list(range(99)), 90)
    timings.record("c", [], 90)
    timings.record("d", list(range(5)))
    assert timings.samples == {"a": 100, "b": 99, "c": 0, "d": 5}
    assert len(timings.flags) == 1 and timings.flags[0].startswith("b:")


def test_self_time_subtracts_covered_interval_once():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(2.0, 4.0)]) == 8.0
    # overlapping children (concurrent measurements) count once
    assert self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 6.0), (3.0, 4.0)]) == 5.0
    # children reaching outside the parent are clipped
    assert self_time(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 8.0
    assert self_time(0.0, 10.0, [(0.0, 10.0), (4.0, 6.0)]) == 0.0


def test_self_times_follow_parent_links():
    spans = [
        {"id": "p:1", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "p:2", "parent": "p:1", "start": 1.0, "end": 4.0},
        {"id": "p:3", "parent": "p:2", "start": 2.0, "end": 3.0},
        {"id": "q:1", "parent": "p:1", "start": 6.0, "end": 7.0},
    ]
    assert self_times(spans) == {"p:1": 6.0, "p:2": 2.0, "p:3": 1.0, "q:1": 1.0}


def test_spans_keep_parents_across_pool_threads_and_uninstall():
    tracer = Tracer("t")

    class Box:
        def outer(self):
            with ContextThreadPool(max_workers=2) as pool:
                return list(pool.map(lambda _: self.inner(), range(2)))

        def inner(self):
            return threading.get_ident()

    original = Box.__dict__["inner"]
    tracer.patch(Box, "outer", tracer.spanning("outer", Box.outer, trace_of=lambda a: "req"))
    tracer.patch(Box, "inner", tracer.spanning("inner", Box.inner))
    Box().outer()
    tracer.uninstall()
    assert Box.__dict__["inner"] is original
    records = {r["name"]: r for r in tracer.records()}
    outer = records["outer"]
    inners = [r for r in tracer.records() if r["name"] == "inner"]
    assert len(inners) == 2
    assert all(r["parent"] == outer["id"] and r["trace"] == "req" for r in inners)


def test_bounds_leave_setup_the_largest():
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def _run(workload: str, trace: int, seconds: float, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


SMOKE_SECONDS = {"sim_sweep": 1.0, "live_uncached": 4.0, "live_cached": 2.0}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_and_untraced_pass_the_same_checks(workload):
    outputs = {}
    for trace in (0, 1):
        proc = _run(workload, trace, SMOKE_SECONDS[workload])
        assert proc.returncode == 0, proc.stderr
        summary, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, summary
        assert result["failed"] == 0 and result["attempted"] >= 1
        table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in table]
        assert summary["provenance"]["tracing"] == ("on" if trace else "off")
        outputs[trace] = summary
    plain, traced = outputs[0]["checks"], outputs[1]["checks"]
    assert all(plain.values()) and all(traced.values())
    # the traced run applies every untraced check, plus the count sanity
    assert set(plain) <= set(traced)
    if workload == "sim_sweep":
        assert outputs[0]["info"]["verdict_digest"] == outputs[1]["info"]["verdict_digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = _run("sim_sweep", 0, 1.0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
