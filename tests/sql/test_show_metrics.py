"""SQL-visible telemetry: SHOW METRICS, SHOW STATS, per-query stats,
trace export, and the disabled fast path."""

import json

import pytest

from repro import Database
from repro.data import fraud_transactions
from repro.errors import SqlError
from repro.models import fraud_fc_256
from repro.sql.parser import parse

FEATURES = ", ".join(f"f{i}" for i in range(28))


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


@pytest.fixture
def fraud_db(db):
    __, __, rows = fraud_transactions(200, seed=7)
    columns = ", ".join(f"f{i} DOUBLE" for i in range(28))
    db.execute(f"CREATE TABLE tx (id INT, {columns}, label INT)")
    db.load_rows("tx", rows)
    db.register_model(fraud_fc_256(), name="fraud")
    return db


def metrics(db) -> dict[str, float]:
    return {row[0]: row[1] for row in db.execute("SHOW METRICS").rows}


def test_show_metrics_and_stats_parse_as_show():
    assert parse("SHOW METRICS") == parse("SELECT * FROM sys.metrics")
    assert parse("show stats") == parse("select * from SYS.STATS")
    with pytest.raises(SqlError):
        parse("SHOW NONSENSE")


def test_metrics_and_stats_stay_usable_as_identifiers(db):
    # METRICS/STATS are soft keywords: only special directly after SHOW.
    db.execute("CREATE TABLE metrics (id INT)")
    db.execute("CREATE TABLE stats (metrics INT)")
    db.execute("INSERT INTO stats VALUES (1)")
    assert db.execute("SELECT metrics FROM stats").rows == [(1,)]


def test_show_metrics_counts_queries(db):
    db.execute("CREATE TABLE t (id INT)")
    before = metrics(db)["queries_total"]
    db.execute("INSERT INTO t VALUES (1)")
    db.execute("SELECT * FROM t")
    after = metrics(db)
    assert after["queries_total"] >= before + 2
    assert after["query_seconds_count"] == after["queries_total"]


def test_predict_increments_bufferpool_and_optimizer_metrics(fraud_db):
    before = metrics(fraud_db)
    cur = fraud_db.execute(f"SELECT PREDICT(fraud, {FEATURES}) FROM tx")
    assert len(cur) == 200
    after = metrics(fraud_db)
    # The scan faulted/served pages through the buffer pool...
    assert after["bufferpool_hits_total"] > before["bufferpool_hits_total"]
    # ...the optimizer made decisions at compile time (register_model)...
    decisions = sum(
        v for k, v in after.items() if k.startswith("optimizer_decisions_total")
    )
    assert decisions > 0
    # ...and query time selected plan stages and ran engine stages.
    selections = {
        k: v - before.get(k, 0)
        for k, v in after.items()
        if k.startswith("optimizer_plan_selections_total") and v > before.get(k, 0)
    }
    assert selections, "PREDICT should select at least one plan stage"
    stage_runs = sum(
        v - before.get(k, 0)
        for k, v in after.items()
        if k.startswith("engine_stage_runs_total")
    )
    assert stage_runs >= 1


def test_metrics_change_across_queries(fraud_db):
    first = metrics(fraud_db)
    fraud_db.execute(f"SELECT PREDICT(fraud, {FEATURES}) FROM tx")
    second = metrics(fraud_db)
    fraud_db.execute(f"SELECT PREDICT(fraud, {FEATURES}) FROM tx")
    third = metrics(fraud_db)
    assert second["queries_total"] > first["queries_total"]
    assert third["queries_total"] > second["queries_total"]
    assert third["bufferpool_hits_total"] > second["bufferpool_hits_total"]


def test_cursor_stats_populated(fraud_db):
    cur = fraud_db.execute(f"SELECT PREDICT(fraud, {FEATURES}) FROM tx")
    stats = cur.stats
    assert stats is not None
    assert stats.statement == "Select"
    assert stats.rows == 200
    assert stats.elapsed_seconds > 0
    assert stats.pool_hits + stats.pool_misses > 0
    assert stats.representations, "engine stages should be attributed"
    text = stats.render()
    assert "200 rows" in text
    assert "buffer pool" in text


def test_show_stats_reports_system_state(fraud_db):
    rows = dict(fraud_db.execute("SHOW STATS").rows)
    assert rows["catalog.tables"] == 1
    assert rows["catalog.models"] == 1
    assert rows["bufferpool.capacity_pages"] > 0
    assert rows["config.telemetry_enabled"] is True
    assert "telemetry.spans_recorded" in rows


def test_export_trace_has_nested_query_spans(fraud_db, tmp_path):
    fraud_db.execute(f"SELECT PREDICT(fraud, {FEATURES}) FROM tx")
    path = tmp_path / "trace.json"
    count = fraud_db.export_trace(str(path))
    assert count > 0
    events = json.loads(path.read_text())["traceEvents"]
    by_name = {e["name"]: e for e in events}
    for name in ("query", "parse", "plan", "execute", "predict:fraud-fc-256"):
        assert name in by_name, f"missing span {name!r}"
    query_id = by_name["query"]["args"]["span_id"]
    assert by_name["parse"]["args"]["parent_id"] == query_id
    assert by_name["plan"]["args"]["parent_id"] == query_id
    assert by_name["execute"]["args"]["parent_id"] == query_id
    predict = by_name["predict:fraud-fc-256"]
    assert predict["args"]["parent_id"] == by_name["execute"]["args"]["span_id"]
    stage_names = [n for n in by_name if n.startswith("stage")]
    assert stage_names, "engine stages should appear as spans"
    for name in stage_names:
        assert by_name[name]["args"]["parent_id"] == predict["args"]["span_id"]


def test_zero_observation_histogram_quantiles_render_null(db):
    # A histogram that never observed anything has no distribution: its
    # SHOW METRICS quantile columns must be SQL NULL, not 0.0.
    db.telemetry.registry.histogram("ghost_seconds", "never observed")
    db.telemetry.registry.histogram("busy_seconds", "observed").observe(0.25)
    cur = db.execute("SHOW METRICS")
    assert cur.columns == ("name", "value", "p50", "p95", "p99")
    summary = {r[0]: r for r in cur.rows}
    assert summary["ghost_seconds"][1:] == (0.0, None, None, None)
    # A populated histogram keeps real quantiles on the same cursor.
    populated = summary["busy_seconds"]
    assert populated[1] == 1.0
    assert all(isinstance(q, float) for q in populated[2:])


def test_metrics_text_renders_prometheus(fraud_db):
    fraud_db.execute("SELECT id FROM tx")
    text = fraud_db.metrics_text()
    assert "# TYPE queries_total counter" in text
    assert "# TYPE query_seconds histogram" in text
    assert 'query_seconds_bucket{le="+Inf"}' in text


def test_disabled_telemetry_path():
    db = Database(telemetry_enabled=False)
    try:
        db.execute("CREATE TABLE t (id INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        cur = db.execute("SELECT * FROM t")
        assert cur.rows == [(1,), (2,)]
        assert cur.stats is None
        assert db.execute("SHOW METRICS").rows == []
        assert db.metrics_text() == ""
    finally:
        db.close()


def test_disabled_trace_export_is_valid_empty(tmp_path):
    db = Database(telemetry_enabled=False)
    try:
        db.execute("CREATE TABLE t (id INT)")
        path = tmp_path / "trace.json"
        assert db.export_trace(str(path)) == 0
        assert json.loads(path.read_text())["traceEvents"] == []
    finally:
        db.close()


def test_explain_rejects_non_select(db):
    db.execute("CREATE TABLE t (id INT)")
    with pytest.raises(SqlError):
        db.explain("INSERT INTO t VALUES (1)")
