"""SHOW EVENTS / SHOW TIMELINE: the flight recorder as a relation."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import Database
from repro.config import SystemConfig
from repro.errors import SqlError, SqlParseError
from repro.models import fraud_fc_256
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.sql.parser import parse
from repro.sql.unparse import unparse
from repro.telemetry import timeline_rows


@pytest.fixture
def db(rng):
    database = Database()
    database.register_model(fraud_fc_256(), name="fraud")
    yield database
    database.close()


def _serve_some(db, rng, n=6):
    with db.serve(workers=1, max_batch_size=4) as server:
        futures = [server.submit("fraud", rng.normal(size=28)) for __ in range(n)]
        for future in futures:
            future.result(timeout=10.0)
    return futures


# -- grammar -----------------------------------------------------------


def test_parse_show_events():
    assert parse("SHOW EVENTS") == parse("SELECT * FROM sys.events")
    assert parse("SHOW EVENTS WHERE kind = 'batch.formed'") == parse(
        "SELECT * FROM sys.events WHERE kind = 'batch.formed'"
    )
    assert parse("SHOW EVENTS WHERE kind = 'x'").where == Comparison(
        "=", ColumnRef("kind"), Literal("x")
    )


def test_parse_show_timeline():
    assert parse("SHOW TIMELINE 42") == parse(
        "SELECT at_ms, source, what, detail FROM sys.timeline WHERE trace_id = 42"
    )
    for text in ("SHOW TIMELINE fraud", "SHOW TIMELINE 1.5", "SHOW TIMELINE 1e3"):
        with pytest.raises(SqlParseError):
            parse(text)


def test_unparse_round_trips():
    for sql, canonical in (
        ("SHOW events", "SELECT * FROM sys.events"),
        (
            "SHOW events WHERE (kind = 'cache.hit')",
            "SELECT * FROM sys.events WHERE (kind = 'cache.hit')",
        ),
        (
            "SHOW timeline 7",
            "SELECT at_ms, source, what, detail FROM sys.timeline "
            "WHERE (trace_id = 7)",
        ),
    ):
        stmt = parse(sql)
        assert unparse(stmt) == canonical
        assert parse(unparse(stmt)) == stmt


def test_unknown_show_target_message_mentions_events():
    db = Database()
    try:
        with pytest.raises(SqlError, match="EVENTS"):
            db.execute("SHOW bogus")
    finally:
        db.close()


# -- execution ---------------------------------------------------------


def test_show_events_exposes_request_lifecycle(db, rng):
    _serve_some(db, rng)
    cursor = db.execute("SHOW EVENTS")
    assert cursor.columns == ("seq", "ts_ms", "kind", "trace_id", "detail")
    kinds = {row[2] for row in cursor.rows}
    assert {"request.admitted", "batch.formed", "batch.executed",
            "request.completed"} <= kinds
    seqs = [row[0] for row in cursor.rows]
    assert seqs == sorted(seqs)


def test_show_events_where_filters_relationally(db, rng):
    futures = _serve_some(db, rng)
    rows = db.execute("SHOW EVENTS WHERE kind = 'request.completed'").rows
    assert rows and all(row[2] == "request.completed" for row in rows)

    trace = futures[0].trace_id
    rows = db.execute(f"SHOW EVENTS WHERE trace_id = {trace}").rows
    assert rows and all(row[3] == trace for row in rows)

    rows = db.execute(
        "SHOW EVENTS WHERE kind LIKE 'batch.%' AND seq > 0"
    ).rows
    assert rows and all(row[2].startswith("batch.") for row in rows)

    assert db.execute("SHOW EVENTS WHERE seq < 0").rows == []


def test_show_timeline_unknown_trace_is_empty(db):
    assert db.execute("SHOW TIMELINE 999999").rows == []


def test_show_events_disabled_telemetry_is_empty():
    db = Database(config=SystemConfig(telemetry_enabled=False))
    try:
        assert db.execute("SHOW EVENTS").rows == []
        assert db.execute("SHOW TIMELINE 1").rows == []
    finally:
        db.close()


def test_query_stats_carry_trace_id_for_show_timeline(db):
    db.execute("CREATE TABLE t (x INT)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    cursor = db.execute("SELECT * FROM t")
    trace = cursor.stats.trace_id
    assert trace > 0
    rows = db.execute(f"SHOW TIMELINE {trace}").rows
    assert any(row[1] == "span" and row[2] == "query" for row in rows)
    assert dict(cursor.stats.as_rows())["trace_id"] == trace


def test_timeline_offsets_never_decrease_for_a_select(db):
    # A plain SELECT's trace has spans but no events: its summary row
    # used to sit at 0.0, after the spans' later offsets.
    db.execute("CREATE TABLE t (x INT)")
    trace = db.execute("SELECT * FROM t").stats.trace_id
    rows = db.execute(f"SHOW TIMELINE {trace}").rows
    offsets = [row[0] for row in rows]
    assert offsets == sorted(offsets) and offsets[-1] > 0.0
    assert rows[-1][1:] == ("summary", "outcome", "unresolved")
    assert rows[-1][0] == rows[-2][0]


def _serve_a_linked_batch(db, rng):
    """Serve one request alone, then a batch of four whose batch events
    link all four traces: the only worker waits on the database lock
    while the four queue."""
    recorder = db.telemetry.events
    with db.serve(workers=1, max_batch_size=4) as server:
        with db._rwlock.write():
            first = server.submit("fraud", rng.normal(size=28))
            while not recorder.events(kind="batch.formed"):
                time.sleep(0.001)
            batch = [server.submit("fraud", rng.normal(size=28)) for __ in range(4)]
        for future in [first, *batch]:
            future.result(timeout=10.0)
    return batch


def test_timeline_relation_is_timeline_rows_per_trace(db, rng):
    batch = _serve_a_linked_batch(db, rng)
    members = {future.trace_id for future in batch}
    recorder, tracer = db.telemetry.events, db.telemetry.tracer
    for kind in ("batch.formed", "batch.executed"):
        links = [set(e.get("traces")) for e in recorder.events(kind=kind)]
        assert members in links
    spans = sorted(tracer.finished, key=lambda s: s.start_s)
    relation = db._relations["timeline"][1]()
    traces = sorted({row[0] for row in relation})
    assert members <= set(traces)
    assert set(traces) == {s.trace_id for s in spans} | {
        t for e in recorder.events() for t in {e.trace_id, *(e.get("traces") or ())}
        if t is not None
    }
    oracle = {
        trace: timeline_rows(
            recorder.events(trace_id=trace), [s for s in spans if s.trace_id == trace]
        )
        for trace in traces
    }
    assert relation == [(t, *row) for t in traces for row in oracle[t]]
    for trace in members:  # served traces take no new rows from queries
        assert db.execute(f"SHOW TIMELINE {trace}").rows == oracle[trace]


# -- SHOW METRICS quantiles / SHOW STATS events ------------------------


def test_show_metrics_has_quantile_columns(db):
    db.execute("CREATE TABLE t (x INT)")
    db.execute("INSERT INTO t VALUES (1)")
    db.execute("SELECT * FROM t")
    cursor = db.execute("SHOW METRICS")
    assert cursor.columns == ("name", "value", "p50", "p95", "p99")
    rows = {row[0]: row for row in cursor.rows}
    # Scalar metrics pad the quantile columns with NULLs.
    scalar = rows["queries_total"]
    assert scalar[2:] == (None, None, None)
    # Histograms add one summary row: value is the observation count and
    # the quantiles are monotone.
    summary = rows["query_seconds"]
    assert summary[1] >= 3
    p50, p95, p99 = summary[2:]
    assert 0.0 < p50 <= p95 <= p99


def test_show_stats_reports_recorder_and_drop_counters(db, rng):
    _serve_some(db, rng, n=2)
    stats = {row[0]: row[1] for row in db.execute("SHOW STATS").rows}
    assert stats["telemetry.events_recorded"] > 0
    assert stats["telemetry.events_emitted"] >= stats["telemetry.events_recorded"]
    assert stats["telemetry.events_dropped"] == 0
    assert stats["telemetry.spans_dropped"] == 0


def test_tracer_drop_counter_surfaces_in_metrics():
    config = SystemConfig(telemetry_max_spans=4)
    db = Database(config=config)
    try:
        for __ in range(5):
            db.execute("SHOW STATS")
        metrics = {r[0]: r[1] for r in db.execute("SHOW METRICS").rows}
        assert metrics["tracer_spans_dropped_total"] > 0
        # The later SHOW STATS sees at least the drops the counter saw
        # (each statement keeps dropping spans once the ring is full).
        stats = {r[0]: r[1] for r in db.execute("SHOW STATS").rows}
        assert (
            stats["telemetry.spans_dropped"]
            >= metrics["tracer_spans_dropped_total"]
        )
    finally:
        db.close()


def test_timeline_of_latest_query_survives_a_full_span_ring():
    # Once the span buffer is full the newest spans must be the ones kept:
    # dropping new spans left SHOW TIMELINE empty for every recent query.
    db = Database(config=SystemConfig(telemetry_max_spans=64))
    try:
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        for i in range(100):
            cursor = db.execute(f"SELECT id FROM t WHERE id = {i % 3}")
        rows = db.execute(f"SHOW TIMELINE {cursor.stats.trace_id}").rows
        assert [row[2] for row in rows if row[1] == "span"][:2] == ["query", "parse"]
        assert db.telemetry.tracer.dropped > 0
    finally:
        db.close()
