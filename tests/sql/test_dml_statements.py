"""INSERT INTO ... SELECT, CREATE TABLE AS, and DELETE."""

import pytest

from repro import Database
from repro.errors import SchemaError, SqlError, SqlParseError, StorageError
from repro.sql import parse
from repro.sql.ast import CreateTableAs, Delete, InsertSelect


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE src (id INT, v DOUBLE)")
    database.execute(
        "INSERT INTO src VALUES (1, 1.5), (2, 2.5), (3, 3.5), (4, 4.5)"
    )
    yield database
    database.close()


def test_parse_new_statements():
    assert isinstance(parse("DELETE FROM t"), Delete)
    assert isinstance(parse("INSERT INTO t SELECT * FROM u"), InsertSelect)
    assert isinstance(parse("CREATE TABLE t AS SELECT 1 + 1 AS x FROM u"), CreateTableAs)
    with pytest.raises(SqlParseError):
        parse("DELETE src")


def test_insert_select_copies_rows(db):
    db.execute("CREATE TABLE dst (id INT, v DOUBLE)")
    db.execute("INSERT INTO dst SELECT id, v * 10 FROM src WHERE id > 2")
    cur = db.execute("SELECT id, v FROM dst ORDER BY id")
    assert cur.rows == [(3, 35.0), (4, 45.0)]
    assert db.catalog.get_table("dst").row_count == 2


def test_insert_select_arity_checked(db):
    db.execute("CREATE TABLE narrow (id INT)")
    with pytest.raises(SqlError):
        db.execute("INSERT INTO narrow SELECT id, v FROM src")


def test_create_table_as_select(db):
    db.execute(
        "CREATE TABLE summary AS SELECT id, v + 1 AS vplus FROM src WHERE v < 3"
    )
    cur = db.execute("SELECT * FROM summary ORDER BY id")
    assert cur.columns == ("id", "vplus")
    assert cur.rows == [(1, 2.5), (2, 3.5)]


def test_create_table_as_with_aggregate(db):
    db.execute("CREATE TABLE stats AS SELECT COUNT(*) AS n, AVG(v) AS mean FROM src")
    assert db.execute("SELECT n, mean FROM stats").fetchone() == (4, 3.0)


def test_delete_with_predicate(db):
    cur = db.execute("DELETE FROM src WHERE v > 2.0")
    assert cur.fetchone() == (3,)
    remaining = db.execute("SELECT id FROM src")
    assert remaining.rows == [(1,)]
    assert db.catalog.get_table("src").row_count == 1


def test_delete_all_rows(db):
    cur = db.execute("DELETE FROM src")
    assert cur.fetchone() == (4,)
    assert db.execute("SELECT COUNT(*) AS n FROM src").fetchone() == (0,)


def test_delete_then_insert_reuses_table(db):
    db.execute("DELETE FROM src WHERE id = 1")
    db.execute("INSERT INTO src VALUES (9, 9.5)")
    ids = sorted(r[0] for r in db.execute("SELECT id FROM src"))
    assert ids == [2, 3, 4, 9]


def test_delete_is_not_an_identifier(db):
    with pytest.raises(SqlParseError):
        db.execute("SELECT delete FROM src")


# -- validate-then-apply: a failed write leaves the table as it was ----------


def counted_rows(db, table):
    """``COUNT(*)``, checked against the catalog's ``row_count``."""
    (count,) = db.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
    assert count == db.catalog.get_table(table).row_count
    return count


def test_insert_values_with_a_bad_row_writes_nothing(db):
    with pytest.raises(SchemaError):
        db.execute("INSERT INTO src VALUES (5, 5.0), (6, 6.0), ('bad', 7.0)")
    assert counted_rows(db, "src") == 4
    assert sorted(r[0] for r in db.execute("SELECT id FROM src")) == [1, 2, 3, 4]


def test_insert_select_failing_midway_writes_nothing(db):
    db.execute("CREATE TABLE dst (id INT, v DOUBLE)")
    with pytest.raises(ZeroDivisionError):  # at id = 3, after two rows
        db.execute("INSERT INTO dst SELECT id, v / (id - 3) FROM src")
    assert counted_rows(db, "dst") == 0


def test_create_table_as_failing_midway_creates_nothing(db):
    with pytest.raises(ZeroDivisionError):
        db.execute("CREATE TABLE bad AS SELECT id, v / (id - 3) AS r FROM src")
    assert not db.catalog.has_table("bad")


# -- a write failing midway keeps row_count equal to the heap ----------------


def fail_second_call(monkeypatch, heap, method):
    real, calls = getattr(heap, method), []

    def flaky(*args):
        calls.append(args)
        if len(calls) == 2:
            raise StorageError(f"injected {method} failure")
        return real(*args)

    monkeypatch.setattr(heap, method, flaky)


def test_delete_failing_midway_counts_each_deleted_row(db, monkeypatch):
    fail_second_call(monkeypatch, db.catalog.get_table("src").heap, "delete")
    with pytest.raises(StorageError):
        db.execute("DELETE FROM src WHERE id > 1")
    assert counted_rows(db, "src") == 3
    assert ("src", 2, 3) in db.execute("SHOW TABLES").rows


def test_update_failing_midway_counts_each_moved_row(db, monkeypatch):
    fail_second_call(monkeypatch, db.catalog.get_table("src").heap, "insert")
    with pytest.raises(StorageError):
        db.execute("UPDATE src SET v = v + 1")
    assert counted_rows(db, "src") == 3


def test_load_rows_with_an_unencodable_value_counts_what_it_stored(db):
    with pytest.raises(SchemaError, match=r"row 2 in table 'src'"):
        db.load_rows("src", [(5, 0.5), (6, 1.5), (7, "oops")])
    assert counted_rows(db, "src") == 6
    with pytest.raises(SchemaError, match=r"row 0 in table 'src'"):
        db.load_rows("src", [(2**70, 0.5)])
    assert counted_rows(db, "src") == 6


def test_insert_select_from_itself_doubles_the_table_once():
    db = Database()
    try:
        db.execute("CREATE TABLE t (id INT, x DOUBLE)")
        db.load_rows("t", [(i, float(i)) for i in range(8000)])  # four pages
        db.execute("INSERT INTO t SELECT id, x FROM t")
        assert counted_rows(db, "t") == 16_000
        (total,) = db.execute("SELECT SUM(id) FROM t").fetchone()
        assert total == 2 * sum(range(8000))
    finally:
        db.close()
