"""Span tracer: nesting, bounded collection, Chrome-trace export."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import Tracer


def test_nested_spans_record_parent_child():
    tracer = Tracer()
    with tracer.span("query") as query:
        with tracer.span("parse") as parse:
            pass
        with tracer.span("execute") as execute:
            with tracer.span("predict:fraud") as predict:
                pass
    spans = {s.name: s for s in tracer.finished}
    assert len(spans) == 4
    assert spans["query"].parent_id is None
    assert spans["parse"].parent_id == query.span_id
    assert spans["execute"].parent_id == query.span_id
    assert spans["predict:fraud"].parent_id == execute.span_id
    assert parse.duration_s >= 0.0
    assert predict.end_s >= predict.start_s


def test_siblings_do_not_nest():
    tracer = Tracer()
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    a, b = tracer.finished
    assert a.parent_id is None and b.parent_id is None


def test_span_set_attaches_args():
    tracer = Tracer()
    with tracer.span("execute", rows=0) as span:
        span.set(rows=10, engine="udf-centric")
    (finished,) = tracer.finished
    assert finished.args == {"rows": 10, "engine": "udf-centric"}


def test_max_spans_bounds_memory():
    tracer = Tracer(max_spans=2)
    for i in range(5):
        with tracer.span(f"s{i}"):
            pass
    assert len(tracer.finished) == 2
    assert [s.name for s in tracer.finished] == ["s3", "s4"]  # newest kept
    assert tracer.dropped == 3
    tracer.clear()
    assert tracer.finished == [] and tracer.dropped == 0


def test_max_spans_must_be_positive():
    with pytest.raises(TelemetryError):
        Tracer(max_spans=0)


def test_export_chrome_trace_is_valid_json(tmp_path):
    tracer = Tracer()
    with tracer.span("query", category="sql", sql="SELECT 1"):
        with tracer.span("parse", category="sql"):
            pass
    path = tmp_path / "trace.json"
    assert tracer.export_chrome_trace(str(path)) == 2
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in events] == ["query", "parse"]  # sorted by start
    for event in events:
        assert event["dur"] >= 0
        assert isinstance(event["pid"], int)
    # Metadata records name the process and every thread that emitted spans.
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    meta_names = {e["name"] for e in meta}
    assert {"process_name", "thread_name"} <= meta_names
    named_tids = {e["tid"] for e in meta if e["name"] == "thread_name"}
    assert {e["tid"] for e in events} <= named_tids
    query, parse = events
    assert parse["args"]["parent_id"] == query["args"]["span_id"]
    assert query["args"]["sql"] == "SELECT 1"
    # The child is contained within the parent (how Chrome nests events).
    assert query["ts"] <= parse["ts"]
    assert parse["ts"] + parse["dur"] <= query["ts"] + query["dur"] + 1e-3


def test_null_tracer_exports_valid_empty_trace(tmp_path):
    tracer = Tracer(enabled=False)
    with tracer.span("ignored") as span:
        span.set(anything=1)
    path = tmp_path / "trace.json"
    assert tracer.export_chrome_trace(str(path)) == 0
    assert json.loads(path.read_text()) == {"traceEvents": [], "displayTimeUnit": "ms"}
    assert tracer.finished == []
