"""Self-tests of the benchmark harness.

Run by path (not part of tier-1)::

    python -m pytest benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import run  # noqa: F401  (puts src/ and benchmarks/ on sys.path)
import gen
import quant
import spans
from loadgen import open_loop
from workloads import meets_slo


def test_same_seed_gives_identical_inputs():
    for make in (
        lambda s: gen.poisson_schedule(s, 500.0, 2.0).tobytes(),
        lambda s: repr(gen.point_statements(s, 50, 32)[1]).encode(),
        lambda s: repr(gen.fraud_rows(s, 40)[1]).encode(),
        lambda s: repr(gen.insert_statements(gen.fraud_rows(s, 20, 100, "inserts")[1], 10)).encode(),
    ):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_point_literals_vary():
    __, statements = gen.point_statements(3, 500, 32)
    assert len(set(statements)) == len(statements)


def test_percentile_refuses_an_unsupported_tail():
    samples = np.arange(999.0)
    with pytest.raises(ValueError, match="beyond"):
        quant.percentile(samples, 99)  # 9 samples beyond p99
    assert quant.percentile(np.arange(1000.0), 99) > 0
    assert quant.percentile(np.arange(5.0), 50) == 2.0  # the median is always allowed
    assert quant.tail_q(999) == 95.0
    assert quant.tail_q(19) == 50.0
    q, value = quant.segment_tail(np.arange(5000.0))
    assert q == 99.0 and value == pytest.approx(2989.0, abs=1)  # the middle segment's p99


def test_spread_is_interquartile_share_of_median():
    assert quant.spread([10.0]) == 0.0
    assert quant.spread([9.0, 10.0, 11.0, 10.0, 10.0]) == pytest.approx(0.1, abs=0.06)


class _Future:
    queue_seconds = execute_seconds = 0.0

    def __init__(self, labels=None, error=None):
        self.labels, self.error = labels, error

    def result(self, timeout=None):
        if self.error is not None:
            raise self.error
        return self.labels


def test_raised_shed_and_wrong_answers_are_failures_and_miss_the_slo():
    right = np.array([1])

    def submit(i):
        if i == 3:
            raise RuntimeError("refused at admission")
        if i == 5:
            return _Future(error=TimeoutError("shed: deadline exceeded"))
        return _Future(labels=np.array([0]) if i == 7 else right)

    due = np.arange(20) * 1e-3
    samples = open_loop(submit, due, lambda i, labels: np.array_equal(labels, right))
    assert samples.attempted == 20
    assert samples.failed == 3
    assert samples.latency_s.size == 17
    assert samples.failed / samples.attempted == pytest.approx(0.15)
    assert not meets_slo(samples, limit_ms=1e9, backlog_slack=10**6)
    clean = open_loop(lambda i: _Future(labels=right), due,
                      lambda i, labels: np.array_equal(labels, right))
    assert clean.failed == 0 and meets_slo(clean, limit_ms=1e3, backlog_slack=2)
    assert not meets_slo(clean, limit_ms=0.0, backlog_slack=2)


def test_open_loop_latency_runs_from_the_due_time():
    def slow_submit(i):
        time.sleep(0.02)  # the generator falls behind: later requests are late
        return _Future(labels=0)

    samples = open_loop(slow_submit, np.zeros(5), lambda i, labels: True)
    assert samples.latency_s[-1] >= 0.09
    assert samples.late_s[-1] >= 0.07


def test_span_self_time_with_nested_and_overlapping_children():
    rec = spans.Recorder()
    root = rec.add("root", 0.0, 10.0)
    child = rec.add("child", 1.0, 5.0, parent=root)
    rec.add("grandchild", 2.0, 3.0, parent=child)
    rec.add("overlap", 4.0, 7.0, parent=root)  # overlaps child on [4, 5]
    rec.add("outside", 9.0, 12.0, parent=root)  # clipped to the parent at 10
    own = spans.self_time_by_name(rec.spans)
    assert own["root"] == pytest.approx(10.0 - (6.0 + 1.0))
    assert own["child"] == pytest.approx(3.0)
    assert own["grandchild"] == pytest.approx(1.0)
    events = spans.chrome_trace(rec.spans)
    assert len(events) == 5 and all(e["ph"] == "X" for e in events)


def test_run_reaps_orphaned_grandchildren():
    # A child that leaves a sleeping grandchild behind, as a cluster worker
    # leaves its resource tracker: both must have ended when reap_all returns.
    script = (
        "import os, sys, time; sys.path.insert(0, %r); import procs\n"
        "assert procs.adopt_orphans()\n"
        "if os.fork() == 0:\n"
        "    if os.fork() == 0:\n"
        "        time.sleep(60)\n"
        "    os._exit(0)\n"
        "time.sleep(0.2)\n"
        "print(procs.reap_all(grace_s=0.3), procs.child_pids())\n" % run.HERE
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=30, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split(maxsplit=1) == ["2", "[]\n"]


def test_quick_run_emits_every_declared_metric(tmp_path):
    declared = run.declaration()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--quick", "--trace",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    # 18-25 s on a quiet host; a slow spell of this shared host has doubled it.
    assert elapsed < 60.0
    results = json.loads((tmp_path / "results.json").read_text())
    layers = json.loads((tmp_path / "layers.json").read_text())
    assert results["fingerprint"]["nproc"] == os.cpu_count()
    for w in declared["workloads"]:
        got = results["runs"][0]["workloads"][w["name"]]["metrics"]
        assert set(got) == {m["name"] for m in declared["end_to_end"]}
        assert all(v["value"] > 0 for v in got.values())
        traced = layers["workloads"][w["name"]]
        assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
        assert traced["detail"]["probe_errors"] == []
    assert json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
