"""``SHOW WORKLOAD``: grammar, cursor shape, and end-to-end accounting."""

from __future__ import annotations

import threading

import pytest

from repro import Database
from repro.errors import SqlParseError
from repro.sql import ast
from repro.sql.parser import parse
from repro.sql.unparse import unparse
from repro.telemetry.workload import WorkloadRow


# -- grammar -------------------------------------------------------------


SUGAR = (
    ("SHOW WORKLOAD", "SELECT * FROM sys.workload"),
    ("show workload top 5 by latency", "SELECT * FROM sys.workload LIMIT 5"),
    (
        "SHOW WORKLOAD TOP 1 BY count",
        "SELECT * FROM sys.workload ORDER BY calls DESC, fingerprint LIMIT 1",
    ),
    (
        "SHOW WORKLOAD TOP 3 BY bytes",
        "SELECT * FROM sys.workload ORDER BY bytes DESC, fingerprint LIMIT 3",
    ),
    (
        "SHOW WORKLOAD 'abc123def456'",
        "SELECT stat, value FROM sys.workload_detail "
        "WHERE fingerprint = 'abc123def456'",
    ),
)


def test_parse_forms():
    for show, select in SUGAR:
        assert parse(show) == parse(select), show


def test_unparse_round_trips():
    for sql in (
        "SHOW WORKLOAD",
        "SHOW WORKLOAD TOP 5 BY latency",
        "SHOW WORKLOAD TOP 2 BY bytes",
        "SHOW WORKLOAD 'deadbeef1234'",
    ):
        stmt = parse(sql)
        assert parse(unparse(stmt)) == stmt


def test_parse_errors():
    with pytest.raises(SqlParseError):
        parse("SHOW WORKLOAD TOP")  # missing count
    with pytest.raises(SqlParseError):
        parse("SHOW WORKLOAD TOP 0 BY latency")  # count < 1
    with pytest.raises(SqlParseError):
        parse("SHOW WORKLOAD TOP 2.5 BY latency")  # not an integer
    with pytest.raises(SqlParseError):
        parse("SHOW WORKLOAD TOP 5 latency")  # BY required
    with pytest.raises(SqlParseError):
        parse("SHOW WORKLOAD TOP 5 BY vibes")  # unknown ordering


def test_soft_keywords_stay_usable_as_identifiers():
    # WORKLOAD / SLO / PROFILE are soft keywords: still valid table and
    # column names outside the SHOW position.
    stmt = parse("SELECT workload, slo FROM profile WHERE workload = 1")
    assert isinstance(stmt, ast.Select)
    assert stmt.table.name == "profile"


# -- end-to-end ----------------------------------------------------------


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


def seed(db, rows=6):
    db.execute("CREATE TABLE t (x INT, name TEXT)")
    for i in range(rows):
        db.execute(f"INSERT INTO t VALUES ({i}, 'n{i}')")


def test_workload_counts_sum_to_executed_queries(db):
    seed(db, rows=6)
    for i in range(10):
        db.execute(f"SELECT * FROM t WHERE x = {i}")
    for i in range(4):
        db.execute(f"SELECT name FROM t LIMIT {i + 1}")
    rows = db.execute("SHOW WORKLOAD TOP 50 BY count").fetchall()
    executed = 1 + 6 + 10 + 4  # create + inserts + two select shapes
    assert sum(r[WorkloadRow._fields.index("calls")] for r in rows) == executed
    # Literal-insensitive: 10 point lookups fold into one fingerprint.
    calls = {r[WorkloadRow._fields.index("sql")]: r[2] for r in rows}
    assert 10 in calls.values()
    assert 6 in calls.values()


def test_show_workload_under_concurrency(db):
    """Acceptance: with 8 concurrent clients, SHOW WORKLOAD counts still
    sum exactly to the number of executed statements."""
    seed(db, rows=4)
    per_thread = 12
    errors = []

    def client(k):
        try:
            for i in range(per_thread):
                db.execute(f"SELECT * FROM t WHERE x = {k * 100 + i}")
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    rows = db.execute("SHOW WORKLOAD TOP 5 BY latency").fetchall()
    lookup = next(
        r for r in rows if "WHERE" in r[WorkloadRow._fields.index("sql")]
    )
    assert lookup[WorkloadRow._fields.index("calls")] == 8 * per_thread


def test_top_k_and_ordering(db):
    seed(db)
    for __ in range(5):
        db.execute("SELECT * FROM t")
    rows = db.execute("SHOW WORKLOAD TOP 1 BY count").fetchall()
    assert len(rows) == 1
    assert rows[0][WorkloadRow._fields.index("calls")] >= 5


def test_fingerprint_detail_view(db):
    seed(db)
    db.execute("SELECT * FROM t WHERE x = 7")
    summary = db.execute("SHOW WORKLOAD TOP 50 BY count").fetchall()
    target = next(
        r for r in summary if "WHERE" in r[WorkloadRow._fields.index("sql")]
    )
    fp = target[WorkloadRow._fields.index("fingerprint")]
    detail = dict(db.execute(f"SHOW WORKLOAD '{fp}'").fetchall())
    assert detail["fingerprint"] == fp
    assert detail["calls"] == 1
    assert db.execute("SHOW WORKLOAD 'ffffffffffff'").fetchall() == []


def test_show_workload_records_itself_shape_normalized(db):
    # SHOW WORKLOAD is a statement like any other (pg_stat_statements
    # semantics): it appears in the store as the Select it parses to,
    # with TOP k normalized so all variants fold into one fingerprint.
    seed(db, rows=1)
    db.execute("SHOW WORKLOAD TOP 3 BY count")
    db.execute("SHOW WORKLOAD TOP 9 BY count")
    rows = db.execute("SHOW WORKLOAD TOP 50 BY count").fetchall()
    show_rows = [
        r for r in rows if "sys.workload" in r[WorkloadRow._fields.index("sql")]
    ]
    assert len(show_rows) == 1
    assert show_rows[0][WorkloadRow._fields.index("statement")] == "Select"
    assert show_rows[0][WorkloadRow._fields.index("calls")] == 2


_OLD_KEYS = {
    "latency": lambda entry: entry.total_seconds,
    "count": lambda entry: entry.calls,
    "bytes": lambda entry: entry.total_bytes,
}


@pytest.mark.parametrize("by", sorted(_OLD_KEYS))
def test_top_k_sugar_ranks_like_the_old_store_ordering(db, by):
    seed(db, rows=3)
    for i in range(7):
        db.execute(f"SELECT * FROM t WHERE x = {i}")
    for i in range(4):
        db.execute(f"SELECT name FROM t LIMIT {i + 1}")
    db.execute("SELECT x FROM t ORDER BY x")
    store = db.telemetry.workload
    for k in (1, 2, len(store)):
        # The SHOW records itself only after its rows are read.
        entries = sorted(
            store._entries.values(),
            key=lambda e: (-_OLD_KEYS[by](e), e.fingerprint),
        )
        expected = [store._row(entry) for entry in entries[:k]]
        assert db.execute(f"SHOW WORKLOAD TOP {k} BY {by}").rows == expected


def test_fingerprint_detail_is_a_filter_of_workload_detail(db):
    seed(db)
    db.execute("SELECT * FROM t WHERE x = 7")
    store = db.telemetry.workload
    fps = [row[0] for row in store.top_rows()]
    assert list(dict.fromkeys(row[0] for row in store.detail_rows())) == fps
    for fp in fps:
        # Each SHOW records itself only after its rows are read.
        expected = [(stat, value) for f, stat, value in store.detail_rows() if f == fp]
        assert db.execute(f"SHOW WORKLOAD '{fp}'").rows == expected


def test_disabled_telemetry_returns_empty(tmp_path):
    db = Database(telemetry_enabled=False)
    try:
        db.execute("CREATE TABLE t (x INT)")
        db.execute("SELECT * FROM t")
        assert db.execute("SHOW WORKLOAD").fetchall() == []
        assert db.execute("SHOW WORKLOAD TOP 5 BY latency").fetchall() == []
        assert db.execute("SHOW WORKLOAD 'abc'").fetchall() == []
    finally:
        db.close()
