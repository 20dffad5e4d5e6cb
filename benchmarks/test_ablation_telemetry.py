"""Ablation A7 — telemetry overhead on the serving path.

The telemetry layer instruments every query (spans, counters, per-query
stats).  Its budget is <5% added latency on the quickstart-style fraud
workload; the disabled path keeps counting into its registry, builds the tracer,
recorder and the other recording objects disabled (they record nothing),
and stops exporting metrics.

Every comparison here is interleaved: the sides take turns pass by pass,
and the order flips each pass, so a slow spell on the host lands on both
sides instead of on whichever side happened to run then.  Each side keeps
its fastest pass (the min filters scheduler noise).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro import Database
from repro.data import fraud_transactions
from repro.models import fraud_fc_256

from _util import emit, fmt_seconds, render_table

ROWS = 400
QUERIES = 6
PASSES = 10
FEATURES = ", ".join(f"f{i}" for i in range(28))
PREDICT_SQL = f"SELECT PREDICT(fraud, {FEATURES}) FROM tx"

#: Extra allowance over each budget for wall-clock jitter; CI runners can
#: override it without loosening the budgets being tracked.
P50_JITTER = float(os.environ.get("REPRO_P50_JITTER", "0.10"))


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


def workload_seconds(db: Database) -> float:
    """Wall time of one pass of the workload."""
    start = time.perf_counter()
    run_workload(db)
    return time.perf_counter() - start


def query_p50_seconds(db: Database) -> float:
    """Median per-query latency over one pass of the workload."""
    samples = []
    for __ in range(QUERIES):
        start = time.perf_counter()
        cur = db.execute(PREDICT_SQL)
        samples.append(time.perf_counter() - start)
        assert len(cur) == ROWS
    return statistics.median(samples)


def fastest(schedule: list[str], **sides) -> dict[str, float]:
    """Each side's fastest sample, taking one sample per name in
    ``schedule``, in order."""
    best = dict.fromkeys(sides, float("inf"))
    for name in schedule:
        best[name] = min(best[name], sides[name]())
    return best


def alternating(passes: int, first: str, second: str) -> list[str]:
    """``passes`` pairs of samples whose order flips pass by pass."""
    return [first, second, second, first] * (passes // 2)


def test_ablation_telemetry_overhead(benchmark, capsys):
    db_on = make_db(telemetry_enabled=True)
    db_off = make_db(telemetry_enabled=False)
    try:
        run_workload(db_off)  # warm the buffer pool and plan cache
        run_workload(db_on)
        best = benchmark.pedantic(
            lambda: fastest(
                alternating(PASSES, "off", "on"),
                off=lambda: workload_seconds(db_off),
                on=lambda: workload_seconds(db_on),
            ),
            rounds=1,
            iterations=1,
        )
        off_s, on_s = best["off"], best["on"]
        overhead = on_s / off_s - 1.0
        spans = len(db_on.telemetry.tracer.finished)
        metrics = len(db_on.execute("SHOW METRICS").rows)
        emit(
            capsys,
            render_table(
                f"Ablation A7: telemetry overhead "
                f"({QUERIES}x PREDICT over {ROWS} rows, min of {PASSES} "
                "interleaved passes)",
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


#: The flight recorder's budget on the disabled fast path: its hooks may
#: add at most 2% to p50 latency over the same calls with ``emit`` a bare
#: no-op.
P50_BUDGET = 0.02

#: Point lookups served through an exact result cache: every call ends in
#: one ``cache.hit`` hook, and a call costs a few microseconds, so a hook
#: that does work shows.  (A SQL PREDICT over the table fires no hook.)
POINT_CALLS = 200


def point_p50_seconds(db: Database, x: np.ndarray) -> float:
    """Median latency of one pass of cached point lookups."""
    samples = []
    for __ in range(POINT_CALLS):
        start = time.perf_counter()
        db.predict_labels("fraud", x)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_ablation_events_disabled_p50_budget(capsys):
    """Flight-recorder hooks must not tax the telemetry-disabled path.

    With ``telemetry_enabled=False`` the flight recorder is built
    disabled (each hook returns after one attribute check).  The
    reference is the same database in the same session with
    ``events.emit`` swapped for a bare no-op, interleaved pass by pass;
    the disabled p50 must stay within 2% of it (plus the jitter
    allowance — wall clocks are noisy, the 2% budget is the contract
    being tracked).
    """
    db = make_db(telemetry_enabled=False)
    events = db.telemetry.events
    x = np.random.default_rng(17).normal(size=(1, 28))

    def with_emit(replacement):
        events.emit = replacement
        try:
            return point_p50_seconds(db, x)
        finally:
            del events.emit

    try:
        assert not events.enabled
        db.enable_result_cache("fraud", distance_threshold=0.0, exact=True)
        hooks = []
        with_emit(lambda *args, **fields: hooks.append(args))  # also warms
        assert len(hooks) >= POINT_CALLS, "every lookup must pass a hook"
        best = fastest(
            alternating(2 * PASSES, "disabled", "noop"),
            disabled=lambda: point_p50_seconds(db, x),
            noop=lambda: with_emit(lambda *args, **fields: None),
        )
        assert len(events) == 0
        assert db.execute("SHOW EVENTS").rows == []
        p50, reference = best["disabled"], best["noop"]
        overhead = p50 / reference - 1.0
        emit(
            capsys,
            render_table(
                "Ablation A7b: flight-recorder overhead, telemetry disabled "
                f"({POINT_CALLS} cached point lookups, min of {2 * PASSES} "
                "interleaved passes)",
                ["p50", "no-op emit p50", "overhead", "budget"],
                [
                    [
                        fmt_seconds(p50),
                        fmt_seconds(reference),
                        f"{overhead * 100:+.1f}%",
                        f"{P50_BUDGET * 100:.0f}% (+{P50_JITTER * 100:.0f}% jitter)",
                    ]
                ],
            ),
        )
        assert p50 <= reference * (1.0 + P50_BUDGET + P50_JITTER), (
            f"disabled-path p50 {fmt_seconds(p50)} exceeds the no-op emit "
            f"p50 {fmt_seconds(reference)} by {overhead * 100:.1f}% "
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

    Three p50s on one telemetry-enabled database, interleaved as
    stopped, running, running, after, stopped, ...: stopped (a pass that
    does not follow a sampling pass), running, and stopped right after a
    sampling pass.  Running must stay within
    ``PROFILER_BUDGET`` (+ the jitter allowance) of stopped, and a
    stopped pass right after one that sampled must match it — the
    enter/exit hooks leave no residual cost.
    """
    db = make_db(telemetry_enabled=True)

    def running() -> float:
        assert db.start_profiler()
        try:
            return query_p50_seconds(db)
        finally:
            assert db.stop_profiler()

    try:
        run_workload(db)  # warm
        # Every "after" pass directly follows a sampling pass, and no
        # "stopped" pass does.
        best = fastest(
            ["stopped", "running", "running", "after"] * PASSES,
            stopped=lambda: query_p50_seconds(db),
            running=running,
            after=lambda: query_p50_seconds(db),
        )
        before, sampling, after = best["stopped"], best["running"], best["after"]
        running_overhead = sampling / before - 1.0
        stopped_overhead = after / before - 1.0
        emit(
            capsys,
            render_table(
                "Ablation A7c: stage-profiler overhead on the query path "
                f"(min of {PASSES}+ interleaved passes)",
                ["profiler", "p50", "overhead", "budget"],
                [
                    ["stopped", fmt_seconds(before), "-", "-"],
                    [
                        "running",
                        fmt_seconds(sampling),
                        f"{running_overhead * 100:+.1f}%",
                        f"{PROFILER_BUDGET * 100:.0f}% "
                        f"(+{P50_JITTER * 100:.0f}% jitter)",
                    ],
                    [
                        "stopped (after running)",
                        fmt_seconds(after),
                        f"{stopped_overhead * 100:+.1f}%",
                        f"(+{P50_JITTER * 100:.0f}% jitter)",
                    ],
                ],
            ),
        )
        assert sampling <= before * (1.0 + PROFILER_BUDGET + P50_JITTER), (
            f"profiler adds {running_overhead * 100:.1f}% while sampling"
        )
        assert after <= before * (1.0 + P50_JITTER), (
            f"stopped profiler leaves {stopped_overhead * 100:.1f}% residue"
        )
    finally:
        db.close()
