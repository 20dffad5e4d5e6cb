"""Query fingerprinting and the bounded workload store."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.parser import fingerprint, normalize, parse
from repro.sql.unparse import unparse
from repro.telemetry.query_stats import QueryStats
from repro.telemetry.workload import WorkloadRow, WorkloadStore


def fp(sql: str) -> str:
    return fingerprint(parse(sql))[0]


def stats(
    sql="SELECT * FROM t",
    statement="Select",
    rows=1,
    elapsed=0.010,
    pool_misses=0,
    cache_hits=0,
    cache_misses=0,
    representations=None,
    trace_id=0,
) -> QueryStats:
    return QueryStats(
        sql=sql,
        statement=statement,
        rows=rows,
        elapsed_seconds=elapsed,
        pool_misses=pool_misses,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        representations=representations or {},
        trace_id=trace_id,
    )


# -- fingerprint normalization ------------------------------------------


def test_literal_insensitivity():
    assert fp("SELECT * FROM t WHERE x = 1") == fp("SELECT * FROM t WHERE x = 2")
    assert fp("SELECT * FROM t WHERE name = 'a'") == fp(
        "SELECT * FROM t WHERE name = 'zz'"
    )


def test_negative_literal_shares_shape_with_positive():
    assert fp("SELECT * FROM t WHERE x = -5") == fp("SELECT * FROM t WHERE x = 5")


def test_whitespace_and_case_stability():
    assert fp("select * from t where x = 1") == fp(
        "SELECT   *\n  FROM T\n WHERE  X = 1"
    )


def test_different_shapes_differ():
    assert fp("SELECT * FROM t WHERE x = 1") != fp("SELECT * FROM t WHERE y = 1")
    assert fp("SELECT * FROM t") != fp("SELECT * FROM u")
    assert fp("SELECT x FROM t") != fp("SELECT y FROM t")


def test_limit_value_is_shape_insensitive_but_presence_matters():
    assert fp("SELECT * FROM t LIMIT 5") == fp("SELECT * FROM t LIMIT 500")
    assert fp("SELECT * FROM t LIMIT 5") != fp("SELECT * FROM t")


def test_insert_collapses_rows_keeping_arity():
    assert fp("INSERT INTO t VALUES (1, 2)") == fp(
        "INSERT INTO t VALUES (3, 4), (5, 6), (7, 8)"
    )
    assert fp("INSERT INTO t VALUES (1, 2)") != fp("INSERT INTO t VALUES (1)")


def test_like_and_in_patterns_normalize():
    assert fp("SELECT * FROM t WHERE name LIKE 'a%'") == fp(
        "SELECT * FROM t WHERE name LIKE 'b_'"
    )
    assert fp("SELECT * FROM t WHERE x IN (1, 2)") == fp(
        "SELECT * FROM t WHERE x IN (7, 9)"
    )


def test_normalized_statement_reparses():
    stmt = parse("SELECT x + 1 FROM t WHERE x BETWEEN 2 AND 9 LIMIT 3")
    normalized = normalize(stmt)
    assert parse(unparse(normalized)) == normalized


_SQL_SAMPLES = st.sampled_from(
    [
        "SELECT * FROM t WHERE x = 1",
        "SELECT x, y FROM t WHERE x > 2 AND y < 3 ORDER BY x DESC LIMIT 7",
        "SELECT COUNT(*) FROM t GROUP BY x HAVING COUNT(x) > 1",
        "INSERT INTO t VALUES (1, 'a'), (2, 'b')",
        "UPDATE t SET x = 5 WHERE y = 'z'",
        "DELETE FROM t WHERE x IS NOT NULL",
        "SELECT * FROM t WHERE name LIKE 'abc%'",
        "SELECT CASE WHEN x > 1 THEN 'hi' ELSE 'lo' END FROM t",
        "SHOW events WHERE kind = 'cache.hit'",
        "SELECT * FROM t UNION ALL SELECT * FROM t",
    ]
)


@settings(max_examples=50, deadline=None)
@given(sql=_SQL_SAMPLES)
def test_fingerprint_deterministic_across_round_trips(sql):
    """fingerprint(parse(s)) == fingerprint(parse(unparse(parse(s))))."""
    stmt = parse(sql)
    rt = parse(unparse(stmt))
    assert fingerprint(stmt) == fingerprint(rt)


# -- the store -----------------------------------------------------------


def key(sql: str) -> tuple[str, str]:
    """The ``(fingerprint, normalized sql)`` a statement is recorded under."""
    return fingerprint(parse(sql))


def test_record_aggregates_per_fingerprint():
    store = WorkloadStore()
    a = key("SELECT * FROM t WHERE x = 1")
    b = key("SELECT * FROM t WHERE x = 2")
    store.record(a, stats(elapsed=0.010, rows=3, pool_misses=2))
    store.record(b, stats(elapsed=0.030, rows=1, cache_hits=1))
    rows = store.top_rows()
    assert len(rows) == 1
    row = dict(zip(WorkloadRow._fields, rows[0]))
    assert row["calls"] == 2
    assert row["rows"] == 4
    assert row["mean_ms"] == pytest.approx(20.0, rel=0.01)
    assert row["bytes"] == 2 * store.page_size
    assert "'?'" in row["sql"]


def test_top_rows_orderings():
    store = WorkloadStore()
    slow = key("SELECT * FROM slow_table")
    hot = key("SELECT * FROM hot_table")
    big = key("SELECT * FROM big_table")
    store.record(slow, stats(elapsed=1.0))
    for __ in range(10):
        store.record(hot, stats(elapsed=0.001))
    store.record(big, stats(elapsed=0.002, pool_misses=100))
    rows = [dict(zip(WorkloadRow._fields, row)) for row in store.top_rows()]
    # The relation's own order is total latency; TOP k BY count | bytes
    # sort on the calls / bytes columns.
    tables = [row["sql"].split()[-1] for row in rows]
    assert tables == ["slow_table", "hot_table", "big_table"]
    assert "hot_table" in max(rows, key=lambda row: row["calls"])["sql"]
    assert "big_table" in max(rows, key=lambda row: row["bytes"])["sql"]


def test_detail_rows_for_known_and_unknown_fingerprints():
    store = WorkloadStore()
    stmt = key("SELECT * FROM t WHERE x = 1")
    fp_hex = store.record(stmt, stats())
    detail = {stat: value for fp, stat, value in store.detail_rows() if fp == fp_hex}
    assert detail["calls"] == 1
    assert detail["fingerprint"] == fp_hex
    assert {row[0] for row in store.detail_rows()} == {fp_hex}


def test_eviction_is_lru_and_bounded():
    store = WorkloadStore(max_fingerprints=2)
    a = key("SELECT * FROM a")
    b = key("SELECT * FROM b")
    c = key("SELECT * FROM c")
    fa = store.record(a, stats())
    store.record(b, stats())
    store.record(a, stats())  # refresh a: b is now least recent
    store.record(c, stats())  # evicts b
    assert len(store) == 2
    assert store.evicted_total == 1
    assert fa in {row[0] for row in store.detail_rows()}, "recently used entry must survive"


def test_latency_regression_detected_after_warmup():
    events = []

    class Recorder:
        def emit(self, kind, **fields):
            events.append((kind, fields))

    store = WorkloadStore(
        regression_factor=3.0,
        regression_warmup=4,
        regression_min_ms=1.0,
        recorder=Recorder(),
    )
    stmt = key("SELECT * FROM t WHERE x = 1")
    for __ in range(4):
        store.record(stmt, stats(elapsed=0.010))
    # 10x the baseline, well past factor 3 and the 1ms floor.
    store.record(stmt, stats(elapsed=0.100))
    kinds = [k for k, __ in events]
    assert kinds == ["workload.regression"]
    assert events[0][1]["regression"] == "latency"
    assert store.regressions_total() == 1


def test_no_regression_during_warmup_or_below_floor():
    store = WorkloadStore(
        regression_factor=3.0, regression_warmup=4, regression_min_ms=50.0
    )
    stmt = key("SELECT * FROM t")
    store.record(stmt, stats(elapsed=0.100))  # warmup: never flags
    for __ in range(4):
        store.record(stmt, stats(elapsed=0.001))
    # 10x slower but only +9ms, below the 50ms absolute floor.
    store.record(stmt, stats(elapsed=0.010))
    assert store.regressions_total() == 0


def test_plan_change_regression():
    events = []

    class Recorder:
        def emit(self, kind, **fields):
            events.append((kind, fields))

    store = WorkloadStore(regression_warmup=2, recorder=Recorder())
    stmt = key("SELECT * FROM t")
    for __ in range(3):
        store.record(
            stmt, stats(representations={"dl-centric": 1}, elapsed=0.01)
        )
    store.record(
        stmt, stats(representations={"relation-centric": 1}, elapsed=0.01)
    )
    assert [k for k, __ in events] == ["workload.regression"]
    assert events[0][1]["regression"] == "plan"


def test_persistently_slower_world_rebaselines():
    events = []

    class Recorder:
        def emit(self, kind, **fields):
            events.append(kind)

    store = WorkloadStore(
        regression_factor=3.0,
        regression_warmup=2,
        regression_min_ms=1.0,
        recorder=Recorder(),
    )
    stmt = key("SELECT * FROM t")
    store.record(stmt, stats(elapsed=0.010))
    store.record(stmt, stats(elapsed=0.010))
    # A sustained 10x shift: flags at first, then the EW baseline catches
    # up and the alerts stop.
    for __ in range(30):
        store.record(stmt, stats(elapsed=0.100))
    assert 0 < events.count("workload.regression") < 30


def test_null_store_is_inert():
    store = WorkloadStore(enabled=False)
    assert store.record(key("SELECT * FROM t"), stats()) == ""
    assert store.top_rows() == []
    assert store.detail_rows() == []
    assert len(store) == 0
