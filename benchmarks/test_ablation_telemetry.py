"""Ablation A7 — telemetry overhead on the serving path.

The telemetry layer instruments every query (spans, counters, per-query
stats).  Its budget is <5% added latency on the quickstart-style fraud
workload; the disabled path keeps counting into its registry but swaps
the tracer, recorder and the other recording objects for shared no-op
objects, and stops exporting metrics.

We run the same PREDICT workload on two otherwise-identical databases —
``telemetry_enabled=True`` and ``False`` — taking the min of several
repeats so scheduler noise doesn't drown the (small) effect being
measured.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import pytest

from repro import Database
from repro.data import fraud_transactions
from repro.models import fraud_fc_256
from repro.telemetry import NULL_RECORDER

from _util import emit, fmt_seconds, render_table

ROWS = 400
QUERIES = 6
REPEATS = 5
FEATURES = ", ".join(f"f{i}" for i in range(28))
PREDICT_SQL = f"SELECT PREDICT(fraud, {FEATURES}) FROM tx"


def make_db(telemetry_enabled: bool) -> Database:
    db = Database(telemetry_enabled=telemetry_enabled)
    __, __, rows = fraud_transactions(ROWS, seed=17)
    columns = ", ".join(f"f{i} DOUBLE" for i in range(28))
    db.execute(f"CREATE TABLE tx (id INT, {columns}, label INT)")
    db.load_rows("tx", rows)
    db.register_model(fraud_fc_256(), name="fraud")
    return db


def run_workload(db: Database) -> None:
    for __ in range(QUERIES):
        cur = db.execute(PREDICT_SQL)
        assert len(cur) == ROWS


def min_workload_seconds(db: Database) -> float:
    run_workload(db)  # warm the buffer pool and plan cache
    best = float("inf")
    for __ in range(REPEATS):
        start = time.perf_counter()
        run_workload(db)
        best = min(best, time.perf_counter() - start)
    return best


def test_ablation_telemetry_overhead(benchmark, capsys):
    db_on = make_db(telemetry_enabled=True)
    db_off = make_db(telemetry_enabled=False)
    try:
        off_s = min_workload_seconds(db_off)
        on_s = min_workload_seconds(db_on)
        on_s = min(
            on_s,
            benchmark.pedantic(
                lambda: min_workload_seconds(db_on), rounds=1, iterations=1
            ),
        )
        overhead = on_s / off_s - 1.0
        spans = len(db_on.telemetry.tracer.finished)
        metrics = len(db_on.execute("SHOW METRICS").rows)
        emit(
            capsys,
            render_table(
                f"Ablation A7: telemetry overhead "
                f"({QUERIES}x PREDICT over {ROWS} rows, min of {REPEATS})",
                ["telemetry", "workload time", "overhead", "spans", "metrics"],
                [
                    ["off", fmt_seconds(off_s), "-", 0, 0],
                    ["on", fmt_seconds(on_s), f"{overhead * 100:+.1f}%", spans, metrics],
                ],
            ),
        )
        # Telemetry must actually observe the workload...
        assert spans > 0 and metrics > 0
        assert db_off.execute("SHOW METRICS").rows == []
        # ...within its latency budget (<5% nominal; asserted with slack
        # because single-digit-ms workloads jitter under CI schedulers).
        assert on_s <= off_s * 1.25, (
            f"telemetry overhead {overhead * 100:.1f}% blows the budget"
        )
    finally:
        db_on.close()
        db_off.close()


#: Checked-in disabled-path p50, regenerated with
#: ``REPRO_WRITE_BASELINES=1 pytest benchmarks/test_ablation_telemetry.py``.
BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "baselines",
    "telemetry_overhead.json",
)

#: The flight recorder's budget on the disabled fast path: its no-op
#: emit hooks may add at most 2% to p50 query latency.  CI runners can
#: override the jitter allowance without loosening the local contract.
P50_BUDGET = 0.02
P50_JITTER = float(os.environ.get("REPRO_P50_JITTER", "0.10"))


def p50_query_seconds(db: Database, repeats: int = 7) -> float:
    """Stable p50 of per-query latency: median within a pass, min across
    passes (the min filters scheduler noise, the median smooths GC)."""
    run_workload(db)  # warm
    best = float("inf")
    for __ in range(repeats):
        samples = []
        for __q in range(QUERIES):
            start = time.perf_counter()
            cur = db.execute(PREDICT_SQL)
            samples.append(time.perf_counter() - start)
            assert len(cur) == ROWS
        best = min(best, statistics.median(samples))
    return best


def test_ablation_events_disabled_p50_budget(capsys):
    """Flight-recorder hooks must not tax the telemetry-disabled path.

    With ``telemetry_enabled=False`` every recorder reference is the
    shared :data:`NULL_RECORDER` (one no-op method call per hook), so
    the disabled p50 must stay within 2% of the checked-in baseline
    (plus a CI-tunable jitter allowance — wall clocks are noisy, the 2%
    budget is the contract being tracked).
    """
    db = make_db(telemetry_enabled=False)
    try:
        assert db.telemetry.events is NULL_RECORDER
        assert not db.telemetry.events.enabled
        p50 = p50_query_seconds(db)
        assert db.execute("SHOW EVENTS").rows == []

        if os.environ.get("REPRO_WRITE_BASELINES") == "1":
            with open(BASELINE_PATH, "w", encoding="utf-8") as f:
                json.dump(
                    {
                        "version": 1,
                        "p50_seconds": p50,
                        "meta": {"rows": ROWS, "queries": QUERIES},
                    },
                    f,
                    indent=2,
                )
            pytest.skip("baseline regenerated; rerun to compare")

        with open(BASELINE_PATH, encoding="utf-8") as f:
            baseline = json.load(f)["p50_seconds"]
        overhead = p50 / baseline - 1.0
        emit(
            capsys,
            render_table(
                "Ablation A7b: flight-recorder overhead, telemetry disabled",
                ["p50", "baseline p50", "overhead", "budget"],
                [
                    [
                        fmt_seconds(p50),
                        fmt_seconds(baseline),
                        f"{overhead * 100:+.1f}%",
                        f"{P50_BUDGET * 100:.0f}% (+{P50_JITTER * 100:.0f}% jitter)",
                    ]
                ],
            ),
        )
        assert p50 <= baseline * (1.0 + P50_BUDGET + P50_JITTER), (
            f"disabled-path p50 {fmt_seconds(p50)} exceeds baseline "
            f"{fmt_seconds(baseline)} by {overhead * 100:.1f}% "
            f"(budget {P50_BUDGET * 100:.0f}%)"
        )
    finally:
        db.close()


#: The sampling profiler's whole point is rate-independent cost: one
#: dict write per stage while running, one attribute check while stopped.
#: Budget: running may add at most 15% to p50 on this single-digit-ms
#: workload (the dominant term is the sampler thread waking at 5ms).
PROFILER_BUDGET = 0.15


def test_ablation_profiler_overhead(capsys):
    """Ablation A7c — stage-profiler overhead while sampling vs stopped.

    Three p50s on one telemetry-enabled database: before the sampler
    starts, while it runs, and after it stops.  Running must stay within
    ``PROFILER_BUDGET`` (+ the shared jitter allowance) of the baseline,
    and stopping must return to it — the enter/exit hooks leave no
    residual cost.
    """
    db = make_db(telemetry_enabled=True)
    try:
        before = p50_query_seconds(db)
        assert db.start_profiler()
        running = p50_query_seconds(db)
        assert db.stop_profiler()
        after = p50_query_seconds(db)
        running_overhead = running / before - 1.0
        stopped_overhead = after / before - 1.0
        emit(
            capsys,
            render_table(
                "Ablation A7c: stage-profiler overhead on the query path",
                ["profiler", "p50", "overhead", "budget"],
                [
                    ["stopped (before)", fmt_seconds(before), "-", "-"],
                    [
                        "running",
                        fmt_seconds(running),
                        f"{running_overhead * 100:+.1f}%",
                        f"{PROFILER_BUDGET * 100:.0f}% "
                        f"(+{P50_JITTER * 100:.0f}% jitter)",
                    ],
                    [
                        "stopped (after)",
                        fmt_seconds(after),
                        f"{stopped_overhead * 100:+.1f}%",
                        f"(+{P50_JITTER * 100:.0f}% jitter)",
                    ],
                ],
            ),
        )
        assert running <= before * (1.0 + PROFILER_BUDGET + P50_JITTER), (
            f"profiler adds {running_overhead * 100:.1f}% while sampling"
        )
        assert after <= before * (1.0 + P50_JITTER), (
            f"stopped profiler leaves {stopped_overhead * 100:.1f}% residue"
        )
    finally:
        db.close()
