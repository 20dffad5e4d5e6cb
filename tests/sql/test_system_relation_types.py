"""Every system relation's columns and their types, pinned.

The SHOW golden file pins names and values; this pins each column's
``ColumnType`` too, as SQL sees it: the schema ``CREATE TABLE ... AS
SELECT * FROM sys.<name>`` gives its table.
"""

from __future__ import annotations

from repro import Database
from repro.relational.schema import ColumnType
from repro.sql.lexer import SHOW_TARGETS

SCHEMAS = {
    "tables": "name TEXT, columns INT, rows INT",
    "models": "name TEXT, model TEXT, params INT",
    "metrics": "name TEXT, value DOUBLE, p50 DOUBLE, p95 DOUBLE, p99 DOUBLE",
    "stats": "stat TEXT, value TEXT",
    "server": "stat TEXT, value TEXT",
    "cluster": "stat TEXT, value TEXT",
    "audit": (
        "model TEXT, stage INT, representation TEXT, ops TEXT, rows INT, "
        "time_ms DOUBLE, estimated_bytes INT, actual_peak_bytes INT, "
        "ratio DOUBLE, verdict TEXT, note TEXT, recovery TEXT"
    ),
    "faults": (
        "site TEXT, kind TEXT, trigger TEXT, transient BOOL, armed BOOL, "
        "hits INT, fires INT, retries INT, recoveries INT"
    ),
    "health": "component TEXT, status TEXT, detail TEXT",
    "events": "seq INT, ts_ms DOUBLE, kind TEXT, trace_id INT, detail TEXT",
    "timeline": "trace_id INT, at_ms DOUBLE, source TEXT, what TEXT, detail TEXT",
    "slo": (
        "model TEXT, objective TEXT, target DOUBLE, window TEXT, "
        "samples INT, bad INT, burn_rate DOUBLE, status TEXT"
    ),
    "profile": "frame TEXT, samples INT, est_ms DOUBLE, share DOUBLE",
    "deployments": (
        "deploy_id INT, model TEXT, version TEXT, state TEXT, "
        "canary_percent DOUBLE, shadow BOOL, requests INT, failures INT, "
        "total_rows INT, shadow_compared INT, shadow_diverged INT, "
        "generation INT, reason TEXT, history TEXT"
    ),
    "workload": (
        "fingerprint TEXT, statement TEXT, calls INT, mean_ms DOUBLE, "
        "p50_ms DOUBLE, p95_ms DOUBLE, rows INT, bytes INT, "
        "cache_hit_rate DOUBLE, recoveries INT, plan TEXT, sql TEXT"
    ),
    "workload_detail": "fingerprint TEXT, stat TEXT, value TEXT",
}


def test_every_system_relation_has_its_pinned_column_types():
    db = Database()
    try:
        assert list(SCHEMAS) == list(SHOW_TARGETS)
        for name, declared in SCHEMAS.items():
            db.execute(f"CREATE TABLE pin_{name} AS SELECT * FROM sys.{name} WHERE 1 = 0")
            schema = db.catalog.get_table(f"pin_{name}").schema
            expected = [column.split() for column in declared.split(", ")]
            assert [(c.name, c.ctype) for c in schema] == [
                (column, ColumnType[ctype]) for column, ctype in expected
            ], name
    finally:
        db.close()
