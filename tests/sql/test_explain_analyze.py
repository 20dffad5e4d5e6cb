"""EXPLAIN ANALYZE: per-operator row counts and timings.

Covers both entry points: the Python ``db.explain_analyze(sql)`` method
(returns ``(cursor, report)``) and the SQL statement ``EXPLAIN ANALYZE
SELECT ...`` (returns the report as a one-column cursor), including the
per-stage estimate-vs-actual section for PREDICT queries.
"""

import pytest

from repro import Database
from repro.data import fraud_transactions
from repro.errors import SqlError
from repro.models import fraud_fc_256
from repro.relational import ColumnRef, ColumnType, Comparison, Literal, Schema
from repro.relational.operators import Filter, Limit, ValuesScan, collect
from repro.relational.operators.instrument import instrument
from repro.sql.ast import Explain
from repro.sql.parser import parse


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INT, v DOUBLE)")
    database.execute(
        "INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 5.0)"
    )
    yield database
    database.close()


def test_instrument_counts_rows_per_node():
    schema = Schema.of(("x", ColumnType.INT))
    scan = ValuesScan(schema, [(i,) for i in range(10)])
    filtered = Filter(scan, Comparison(">", ColumnRef("x"), Literal(4)))
    limited = Limit(filtered, 3)
    report = instrument(limited)
    rows = collect(limited).rows
    assert rows == [(5,), (6,), (7,)]
    assert report.for_node(limited).rows == 3
    assert report.for_node(filtered).rows == 3  # limit stops pulling
    # The scan produced up to x=7 before the limit stopped it.
    assert 8 <= report.for_node(scan).rows <= 10
    text = report.render(limited)
    assert "Limit" in text and "rows=3" in text


def test_explain_analyze_through_session(db):
    cursor, report = db.explain_analyze("SELECT id FROM t WHERE v > 2.5")
    assert [r[0] for r in cursor] == [3, 4, 5]
    assert "SeqScan(t)  [rows=5" in report
    assert "Filter" in report
    assert "rows=3" in report
    assert "ms]" in report


def test_explain_analyze_with_join(db):
    db.execute("CREATE TABLE u (tid INT, w TEXT)")
    db.execute("INSERT INTO u VALUES (1, 'a'), (1, 'b'), (9, 'z')")
    cursor, report = db.explain_analyze(
        "SELECT t.id, u.w FROM t JOIN u ON t.id = u.tid"
    )
    assert len(cursor) == 2
    assert "HashJoin" in report


def test_explain_analyze_rejects_non_select(db):
    with pytest.raises(SqlError):
        db.explain_analyze("CREATE TABLE x (a INT)")


def test_explain_analyze_parses_as_statement():
    query = parse("SELECT id FROM t")
    assert parse("EXPLAIN ANALYZE SELECT id FROM t") == Explain(query, analyze=True)
    # ANALYZE is a soft keyword: plain EXPLAIN still parses, and the
    # word stays usable as an identifier.
    assert parse("EXPLAIN SELECT id FROM t") == Explain(query)
    assert parse("SELECT analyze FROM t")


@pytest.mark.parametrize(
    "sql, explains, analyzes",
    [
        ("SELECT id FROM t", True, True),
        ("EXPLAIN SELECT id FROM t", True, False),
        ("EXPLAIN ANALYZE SELECT id FROM t", False, True),
        ("SHOW WORKLOAD TOP 2 BY count", True, True),
        ("SHOW TIMELINE 1", True, True),
        ("SELECT id FROM t UNION ALL SELECT id FROM t", False, False),
        ("DELETE FROM t", False, False),
    ],
)
def test_python_entry_points_accept_a_select_or_their_own_explain(
    db, sql, explains, analyzes
):
    for method, accepts in ((db.explain, explains), (db.explain_analyze, analyzes)):
        if accepts:
            method(sql)
        else:
            with pytest.raises(SqlError, match="supports SELECT statements only"):
                method(sql)
    assert len(db.execute("SELECT id FROM t")) == 5  # DELETE never ran


def test_explain_analyze_records_as_explain(db):
    stats = db.execute("EXPLAIN ANALYZE SELECT id FROM t").stats
    assert stats.statement == "Explain"


def test_explain_analyze_sql_statement(db):
    cur = db.execute("EXPLAIN ANALYZE SELECT id FROM t WHERE v > 2.5")
    assert cur.columns == ("plan",)
    report = "\n".join(row[0] for row in cur)
    assert "SeqScan(t)  [rows=5" in report
    assert "Filter" in report
    assert "rows=3" in report


def test_explain_analyze_sql_statement_with_join(db):
    db.execute("CREATE TABLE u (tid INT, w TEXT)")
    db.execute("INSERT INTO u VALUES (1, 'a'), (1, 'b'), (9, 'z')")
    cur = db.execute(
        "EXPLAIN ANALYZE SELECT t.id, u.w FROM t JOIN u ON t.id = u.tid"
    )
    report = "\n".join(row[0] for row in cur)
    assert "HashJoin" in report
    assert "rows=2" in report


@pytest.fixture
def fraud_db():
    database = Database()
    __, __, rows = fraud_transactions(120, seed=7)
    columns = ", ".join(f"f{i} DOUBLE" for i in range(28))
    database.execute(f"CREATE TABLE tx (id INT, {columns}, label INT)")
    database.load_rows("tx", rows)
    database.register_model(fraud_fc_256(), name="fraud")
    yield database
    database.close()


def test_explain_analyze_predict_reports_inference_stages(fraud_db):
    features = ", ".join(f"f{i}" for i in range(28))
    cur = fraud_db.execute(
        f"EXPLAIN ANALYZE SELECT id, PREDICT(fraud, {features}) FROM tx"
    )
    report = "\n".join(row[0] for row in cur)
    assert "inference stages (predict: fraud):" in report
    stage_lines = [
        line
        for line in report.split("\n")
        if line.strip().startswith("fraud-fc-256 stage")
    ]
    assert stage_lines, "each executed stage should get a report line"
    for line in stage_lines:
        # representation, rows, wall time, estimated and actual bytes.
        assert "[rows=120" in line
        assert "time=" in line
        assert "est=" in line and "actual=" in line
        assert "verdict=" in line
        assert any(
            rep in line for rep in ("udf-centric", "relation-centric", "dl-centric")
        )


def test_explain_analyze_predict_disabled_telemetry_note():
    db = Database(telemetry_enabled=False)
    try:
        __, __, rows = fraud_transactions(30, seed=7)
        columns = ", ".join(f"f{i} DOUBLE" for i in range(28))
        db.execute(f"CREATE TABLE tx (id INT, {columns}, label INT)")
        db.load_rows("tx", rows)
        db.register_model(fraud_fc_256(), name="fraud")
        features = ", ".join(f"f{i}" for i in range(28))
        __, report = db.explain_analyze(
            f"SELECT PREDICT(fraud, {features}) FROM tx"
        )
        assert "telemetry disabled" in report
    finally:
        db.close()


def test_instrumented_plan_is_re_runnable():
    schema = Schema.of(("x", ColumnType.INT))
    scan = ValuesScan(schema, [(1,), (2,)])
    report = instrument(scan)
    assert list(scan) == [(1,), (2,)]
    assert list(scan) == [(1,), (2,)]
    assert report.for_node(scan).rows == 4
    assert report.for_node(scan).opened == 2
