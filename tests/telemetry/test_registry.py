"""Metrics registry: counters, gauges, histograms, rendering."""

import json

import pytest

from repro.errors import TelemetryError
from repro import Database
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_increments(registry):
    c = registry.counter("requests_total", "Requests served.")
    assert c.value == 0
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_counter_rejects_negative_increment(registry):
    c = registry.counter("requests_total", "Requests served.")
    with pytest.raises(TelemetryError):
        c.inc(-1)


def test_get_or_create_returns_same_instance(registry):
    a = registry.counter("hits_total", "Hits.")
    b = registry.counter("hits_total", "Hits.")
    assert a is b
    a.inc()
    assert b.value == 1


def test_labels_distinguish_series(registry):
    a = registry.counter("stage_runs_total", "Stage runs.", engine="udf-centric")
    b = registry.counter("stage_runs_total", "Stage runs.", engine="dl-centric")
    assert a is not b
    a.inc(3)
    assert a.value == 3
    assert b.value == 0
    snap = registry.snapshot()
    assert snap['stage_runs_total{engine="udf-centric"}'] == 3
    assert snap['stage_runs_total{engine="dl-centric"}'] == 0


def test_kind_conflict_raises(registry):
    registry.counter("x_total", "X.")
    with pytest.raises(TelemetryError):
        registry.gauge("x_total", "X.")


def test_gauge_set_inc_dec(registry):
    g = registry.gauge("resident_pages", "Resident pages.")
    g.set(10)
    g.inc()
    g.dec(3)
    assert g.value == 8


def test_histogram_buckets_are_cumulative(registry):
    h = registry.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    counts = h.bucket_counts()
    # Bounds gain a trailing +Inf bucket; counts are cumulative.
    assert counts[0.1] == 1
    assert counts[1.0] == 2
    assert counts[float("inf")] == 3
    assert h.count == 3
    assert h.sum == pytest.approx(5.55)


def test_histogram_default_buckets_cover_latencies(registry):
    h = registry.histogram("query_seconds", "Query latency.")
    for value in (1e-6, 1e-3, 0.5, 100.0):
        h.observe(value)
    assert h.count == 4
    assert h.bucket_counts()[float("inf")] == 4
    assert DEFAULT_LATENCY_BUCKETS[0] < DEFAULT_LATENCY_BUCKETS[-1]


def test_histogram_requires_buckets(registry):
    with pytest.raises(TelemetryError):
        registry.histogram("empty_seconds", "Empty.", buckets=())


def test_render_prometheus_text(registry):
    registry.counter("hits_total", "Cache hits.", cache="ann").inc(2)
    registry.histogram("lat_seconds", "Latency.", buckets=(1.0,)).observe(0.5)
    text = registry.render_prometheus()
    assert "# HELP hits_total Cache hits." in text
    assert "# TYPE hits_total counter" in text
    assert 'hits_total{cache="ann"} 2' in text
    assert "# TYPE lat_seconds histogram" in text
    assert 'lat_seconds_bucket{le="1.0"} 1' in text
    assert 'lat_seconds_bucket{le="+Inf"} 1' in text
    assert "lat_seconds_sum 0.5" in text
    assert "lat_seconds_count 1" in text


def test_reset_zeroes_but_keeps_instances(registry):
    c = registry.counter("n_total", "N.")
    c.inc(7)
    registry.reset()
    assert c.value == 0
    assert registry.counter("n_total", "N.") is c


def test_disabled_telemetry_counts_but_does_not_export(tmp_path):
    # Counters are system state: with telemetry off the registry still
    # counts, and only the three export sites go empty.
    with Database(telemetry_enabled=False) as db:
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("SELECT * FROM t")
        hits = db.telemetry.registry.get("bufferpool_hits_total")
        assert hits.value > 0
        assert hits.value == db.buffer_pool.stats.hits
        assert db.execute("SHOW METRICS").rows == []
        assert db.metrics_text() == ""
        assert db.dump_diagnostics(str(tmp_path / "bundle.json"))
        with open(tmp_path / "bundle.json", encoding="utf-8") as f:
            assert json.load(f)["metrics"] == {}


def test_metric_updates_are_thread_safe(registry):
    import threading

    counter = registry.counter("race_total", "Racing increments.")
    gauge = registry.gauge("race_gauge", "Racing adjustments.")
    hist = registry.histogram("race_seconds", "Racing observations.")
    per_thread = 2000

    def work():
        for _ in range(per_thread):
            counter.inc()
            gauge.inc(2.0)
            gauge.dec(1.0)
            hist.observe(0.5)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = 8 * per_thread
    # Unlocked read-modify-write would lose updates under this contention.
    assert counter.value == total
    assert gauge.value == total * 1.0
    assert hist.count == total
    assert hist.sum == total * 0.5
