"""Flight recorder: the bounded ring of typed structured events."""

from __future__ import annotations

import threading

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    EVENT_KINDS,
    Event,
    FlightRecorder,
    timeline_rows,
    timelines,
)
from repro.telemetry.events import EventRow
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import Tracer


def test_emit_assigns_monotonic_seq_and_keeps_order():
    recorder = FlightRecorder()
    recorder.emit("request.admitted", trace_id=7, model="fraud")
    recorder.emit("batch.formed", trace_id=7, requests=3)
    events = recorder.events()
    assert [e.seq for e in events] == [1, 2]
    assert [e.kind for e in events] == ["request.admitted", "batch.formed"]
    assert events[0].get("model") == "fraud"
    assert events[0].trace_id == 7


def test_ring_keeps_newest_and_counts_evictions():
    recorder = FlightRecorder(max_events=4)
    for i in range(10):
        recorder.emit("request.completed", seq_marker=i)
    assert len(recorder) == 4
    assert recorder.dropped == 6
    assert recorder.emitted_total == 10
    kept = [e.get("seq_marker") for e in recorder.events()]
    assert kept == [6, 7, 8, 9]  # newest survive


def test_invalid_capacity_rejected():
    with pytest.raises(TelemetryError):
        FlightRecorder(max_events=0)


def test_events_filter_by_kind_trace_and_limit():
    recorder = FlightRecorder()
    recorder.emit("request.admitted", trace_id=1)
    recorder.emit("request.admitted", trace_id=2)
    recorder.emit("batch.formed", trace_id=1, traces=(1, 2))
    assert len(recorder.events(kind="request.admitted")) == 2
    # trace filtering honours membership links (the `traces` field).
    for trace in (1, 2):
        kinds = [e.kind for e in recorder.events(trace_id=trace)]
        assert kinds == ["request.admitted", "batch.formed"]
    assert len(recorder.events(limit=1)) == 1


def test_rows_match_show_events_columns():
    recorder = FlightRecorder()
    recorder.emit("cache.hit", trace_id=3, model="fraud", hits=4)
    (row,) = recorder.rows()
    assert len(row) == len(EventRow._fields)
    seq, ts_ms, kind, trace_id, detail = row
    assert (seq, kind, trace_id) == (1, "cache.hit", 3)
    assert isinstance(ts_ms, float)
    assert "model=fraud" in detail and "hits=4" in detail


def test_per_kind_counters_mirror_into_registry():
    registry = MetricsRegistry()
    recorder = FlightRecorder(metrics=registry)
    recorder.emit("breaker.open")
    recorder.emit("breaker.open")
    recorder.emit("breaker.closed")
    snapshot = registry.snapshot()
    assert snapshot['flight_events_total{kind="breaker.open"}'] == 2
    assert snapshot['flight_events_total{kind="breaker.closed"}'] == 1


def test_concurrent_emits_never_lose_or_duplicate_seq():
    recorder = FlightRecorder(max_events=10_000)
    per_thread = 200

    def emitter():
        for __ in range(per_thread):
            recorder.emit("request.completed")

    threads = [threading.Thread(target=emitter) for __ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seqs = [e.seq for e in recorder.events()]
    assert sorted(seqs) == list(range(1, 8 * per_thread + 1))


def test_as_dicts_is_json_safe():
    recorder = FlightRecorder()
    recorder.emit("batch.formed", trace_id=1, traces=(1, 2), obj=object())
    (d,) = recorder.as_dicts()
    assert d["kind"] == "batch.formed"
    assert d["fields"]["traces"] == [1, 2]
    assert isinstance(d["fields"]["obj"], str)


def test_clear_resets_ring_and_counters():
    recorder = FlightRecorder(max_events=1)
    recorder.emit("request.admitted")
    recorder.emit("request.admitted")
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.dropped == 0
    assert recorder.events() == []


def test_null_recorder_is_inert():
    recorder = FlightRecorder(enabled=False)
    assert recorder.emit("request.admitted", model="x") is None
    assert recorder.events() == []
    assert recorder.rows() == []
    assert recorder.as_dicts() == []
    assert len(recorder) == 0
    assert recorder.dropped == 0
    assert not recorder.enabled


def test_known_event_kinds_are_distinct():
    assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)


def test_timeline_rows_merge_events_and_spans_with_summary():
    tracer = Tracer()
    span = tracer.start_span("request:fraud", category="server")
    trace = span.trace_id
    recorder = FlightRecorder()
    recorder.emit("request.admitted", trace_id=trace, model="fraud")
    recorder.emit("request.retried", trace_id=trace, attempt=1)
    recorder.emit(
        "request.completed", trace_id=trace, queue_ms=1.5, execute_ms=2.5
    )
    span.finish()
    rows = timeline_rows(recorder.events(trace_id=trace), tracer.finished)
    whats = [(source, what) for __, source, what, __d in rows]
    assert ("event", "request.admitted") in whats
    assert ("span", "request:fraud") in whats
    summary = {what: detail for __, source, what, detail in rows if source == "summary"}
    assert summary["outcome"] == "completed"
    assert summary["queue_ms"] == "1.5"
    assert summary["execute_ms"] == "2.5"
    assert summary["retries"] == "1"
    # Relative times start at zero and never regress.
    at = [row[0] for row in rows]
    assert at[0] == 0.0 and at == sorted(at)


def test_timeline_rows_empty_trace_is_empty():
    assert timeline_rows([], []) == []
    assert timelines([], []) == []


def test_timelines_group_linked_events_and_spans_per_trace():
    tracer = Tracer()
    first = tracer.start_span("request:a")
    second = tracer.start_span("request:b")
    recorder = FlightRecorder()
    recorder.emit("request.admitted", trace_id=second.trace_id)
    recorder.emit("batch.formed", trace_id=first.trace_id,
                  traces=(first.trace_id, second.trace_id))
    recorder.emit("cache.hit", model="a")  # no trace: in no timeline
    second.finish()
    first.finish()
    rows = timelines(recorder.events(), tracer.finished)
    traces = sorted({first.trace_id, second.trace_id})
    assert rows == [
        (trace, *row)
        for trace in traces
        for row in timeline_rows(
            recorder.events(trace_id=trace),
            [s for s in tracer.finished if s.trace_id == trace],
        )
    ]
    linked = [row for row in rows if row[0] == second.trace_id and row[3] == "batch.formed"]
    assert len(linked) == 1


def test_event_involves_and_get_defaults():
    event = Event(seq=1, ts_s=0.0, kind="batch.executed", trace_id=5,
                  fields=(("traces", (5, 9)),))
    assert event.involves(5) and event.involves(9)
    assert not event.involves(6)
    assert event.get("missing", "fallback") == "fallback"


def test_one_admission_event_per_admitted_request():
    """``request.admitted`` carries the verdict; no separate decision event."""
    import numpy as np

    from repro import Database
    from repro.models import fraud_fc_256

    assert "admission.decision" not in EVENT_KINDS
    db = Database()
    db.register_model(fraud_fc_256(), name="fraud")
    try:
        n = 12
        feats = np.random.default_rng(5).normal(size=(n, 28))
        with db.serve(workers=1) as server:
            futures = [server.submit("fraud", row) for row in feats]
            for future in futures:
                future.result(timeout=10.0)
        events = db.telemetry.events
        admitted = events.events(kind="request.admitted")
        assert len(admitted) == n
        assert events.events(kind="admission.decision") == []
        assert {e.trace_id for e in admitted} == {f.trace_id for f in futures}
        for event in admitted:
            assert event.get("action") == "admit"
            assert event.get("cold") is False
            assert event.get("reason") == "no deadline check"
            queued = event.get("queued_requests")
            assert isinstance(queued, int) and 0 <= queued < n
    finally:
        db.close()
