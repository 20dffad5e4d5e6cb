"""Telemetry off is a state of the real collectors, and its output is pinned.

Each collector built disabled records nothing whatever it is driven
with.  A seeded telemetry-off session serves SQL and a thread-server
round trip, then every system relation, export and bundle must read
exactly as pinned here: the recording relations empty, the state
relations value for value, no per-query stats, empty trace and profile
files.  Under served load (a process pool and a thread server) the
parent's disabled collectors stay empty and no ``Telemetry`` is built
per request.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Database
from repro.config import SystemConfig
from repro.data import fraud_transactions
from repro.models import fraud_fc_256
from repro.sql.lexer import SHOW_TARGETS
from repro.sql.parser import parse
from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    PlanAuditor,
    QueryStats,
    SloTracker,
    Span,
    StageProfiler,
    Telemetry,
    TraceContext,
    Tracer,
    WorkloadStore,
)
from repro.telemetry.diagnostics import validate_bundle

from ..sql.test_show_golden import PREDICT_SQL, _normalise


def _drive_tracer(tracer: Tracer) -> None:
    with tracer.span("query", sql="SELECT 1") as span:
        span.set(rows=1)
        assert not isinstance(span, Span)
        with tracer.span("child"):
            assert tracer.current_trace_id() is None
    detached = tracer.start_span("request", ctx=TraceContext(7, 7))
    assert not isinstance(detached, Span)
    detached.finish(outcome="ok")
    with tracer.context(TraceContext(7, 7)) as anchored:
        assert anchored is None
        assert tracer.current_context() is None


def _drive_recorder(recorder: FlightRecorder) -> None:
    for kind in ("request.admitted", "batch.formed", "request.completed"):
        assert recorder.emit(kind, trace_id=7, model="m") is None


def _drive_auditor(auditor: PlanAuditor) -> None:
    auditor.observe_peak("udf-centric", 1 << 20)
    audit = auditor.record_stage("m", 0, "udf-centric", "matmul", 8, 0.1, 10, 99, 50)
    assert audit is None


def _drive_workload(store: WorkloadStore) -> None:
    stats = QueryStats(
        sql="SELECT * FROM t", statement="Select", rows=1, elapsed_seconds=0.1
    )
    for __ in range(3):
        assert store.record(parse("SELECT * FROM t WHERE x = 1"), stats) == ""


def _drive_slo(slo: SloTracker) -> None:
    assert slo.set_policy("m", latency_ms=1.0) is None
    slo.observe("m", ok=False, latency_ms=5.0)
    slo.observe_many("m", [5.0] * 16, ok=False)


def _drive_profiler(profiler: StageProfiler) -> None:
    assert profiler.start() is False
    profiler.enter("m;stage0:udf-centric")
    profiler.exit()
    assert profiler.stop() is False


#: name -> (build it disabled, drive every recording call).
COLLECTORS = {
    "tracer": (lambda: Tracer(enabled=False), _drive_tracer),
    "recorder": (lambda: FlightRecorder(enabled=False), _drive_recorder),
    "auditor": (lambda: PlanAuditor(MetricsRegistry(), enabled=False), _drive_auditor),
    "workload": (lambda: WorkloadStore(enabled=False), _drive_workload),
    # A default latency objective would auto-register any observed model.
    "slo": (lambda: SloTracker(enabled=False, default_latency_ms=1.0), _drive_slo),
    "profiler": (lambda: StageProfiler(enabled=False), _drive_profiler),
}


def assert_holds_nothing(collector) -> None:
    """What each collector reads after recording nothing."""
    assert collector.enabled is False
    if hasattr(collector, "__len__"):
        assert len(collector) == 0
    for rows in ("rows", "events", "finished", "top_rows", "detail_rows",
                 "collapsed", "policies", "mispredictions", "records"):
        value = getattr(collector, rows, [])
        assert (value() if callable(value) else value) == [], rows
    if hasattr(collector, "records_since"):
        assert collector.records_since(0) == []
    for count in ("dropped", "total_recorded", "recorded_total", "sampled"):
        assert getattr(collector, count, 0) == 0, count
    if hasattr(collector, "snapshot"):
        assert collector.snapshot() == {}


@pytest.mark.parametrize("name", sorted(COLLECTORS))
def test_disabled_collector_records_nothing(name):
    build, drive = COLLECTORS[name]
    collector = build()
    drive(collector)
    assert_holds_nothing(collector)


def collectors(telemetry: Telemetry) -> tuple:
    return (
        telemetry.tracer, telemetry.events, telemetry.audit,
        telemetry.workload, telemetry.slo, telemetry.profiler,
    )


def test_disabled_telemetry_builds_each_collector_disabled():
    for collector in collectors(Telemetry(enabled=False)):
        assert_holds_nothing(collector)


FAULT_SITES = (
    "bufferpool.evict", "disk.read_page", "disk.sync", "disk.write_page",
    "engine.stage", "lifecycle.prepare", "lifecycle.rollback",
    "lifecycle.swap", "persist.sidecar", "persist.sidecar_replace",
    "result_cache.lookup", "server.batch",
)

#: Each relation's normalised rows after the session below; any relation
#: a collector renders is empty.
EXPECTED: dict[str, list[list]] = {
    "tables": [["tx", 30, 16]],
    "models": [["fraud", "fraud-fc-256", 7938]],
    "stats": [
        ["bufferpool.capacity_pages", 512],
        ["bufferpool.resident_pages", 1],
        ["bufferpool.pinned_pages", 0],
        ["bufferpool.hits", 17],
        ["bufferpool.misses", 0],
        ["bufferpool.hit_rate", 1.0],
        ["bufferpool.evictions", 0],
        ["bufferpool.dirty_writebacks", 0],
        ["catalog.tables", 1],
        ["catalog.models", 1],
        ["config.eviction_policy", "lru"],
        ["config.memory_threshold_bytes", 2097152],
        ["config.telemetry_enabled", False],
    ],
    "faults": [[site, "-", "-", False, False, 0, 0, 0, 0] for site in FAULT_SITES],
    "health": [
        ["breaker:engine:udf-centric", "ok",
         "state=closed failure_rate=0.00 opened_total=0"],
        ["budget:db", "ok", "used=0B limit=67,108,864B (0%)"],
        ["budget:dl", "ok", "used=0B limit=67,108,864B (0%)"],
        ["recovery", "ok", "rescued=0 gave_up=0"],
        ["overall", "ok", "4 components"],
    ],
}


def test_telemetry_off_output_is_pinned(tmp_path):
    x = np.random.default_rng(7).normal(size=(2, 28))
    with Database(telemetry_enabled=False, seed=7) as db:
        __, __, rows = fraud_transactions(16, seed=7)
        columns = ", ".join(f"f{i} DOUBLE" for i in range(28))
        db.execute(f"CREATE TABLE tx (id INT, {columns}, label INT)")
        db.load_rows("tx", rows)
        db.register_model(fraud_fc_256(), name="fraud")
        db.set_slo("fraud", latency_ms=1000.0)
        cursor = db.execute(PREDICT_SQL)
        assert len(cursor.rows) == 16
        assert cursor.stats is None
        expected_labels = db.predict_labels("fraud", x)
        with db.serve(workers=1) as server:
            np.testing.assert_array_equal(server.predict("fraud", x), expected_labels)

        for target in SHOW_TARGETS:
            cursor = db.execute(f"SELECT * FROM sys.{target}")
            got = _normalise(cursor.columns, cursor.rows)
            assert got == EXPECTED.get(target, []), target

        trace = tmp_path / "trace.json"
        assert db.export_trace(str(trace)) == 0
        assert json.loads(trace.read_text()) == {
            "traceEvents": [], "displayTimeUnit": "ms"
        }
        profile = tmp_path / "profile.folded"
        assert db.export_profile(str(profile)) == 0
        assert profile.read_text() == ""
        assert db.start_profiler() is False
        bundle = db.dump_diagnostics(str(tmp_path / "bundle.json"))
        with open(bundle, encoding="utf-8") as f:
            assert validate_bundle(json.load(f)) == []


def test_served_load_keeps_disabled_collectors_empty(monkeypatch):
    """A telemetry-off process pool and thread server record nothing in
    the parent, and build no ``Telemetry`` per request."""
    config = SystemConfig(
        telemetry_enabled=False,
        cluster_heartbeat_interval_ms=20.0,
        cluster_heartbeat_timeout_ms=600.0,
        cluster_request_timeout_ms=20000.0,
    )
    x = np.random.default_rng(3).normal(size=(16, 28))
    built = 0
    init = Telemetry.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    with Database(config=config) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        expected = db.predict_labels("fraud", x)
        for mode in ({"cluster_workers": 2}, {"workers": 2}):
            with db.serve(**mode) as server:
                server.predict("fraud", x)  # warm: spawn, place, plan
                monkeypatch.setattr(Telemetry, "__init__", counting_init)
                futures = [server.submit("fraud", x) for __ in range(8)]
                for future in futures:
                    np.testing.assert_array_equal(future.result(timeout=60), expected)
                monkeypatch.setattr(Telemetry, "__init__", init)
        assert built == 0
        for collector in collectors(db.telemetry):
            assert_holds_nothing(collector)
