"""System relations: one registry behind every ``SHOW <target> [WHERE]``."""

from __future__ import annotations

import pytest

from repro import Database
from repro.errors import BindError, SqlError, SqlParseError
from repro.faults import FAULT_SCHEMA
from repro.models import fraud_fc_256
from repro.sql.ast import Show
from repro.sql.lexer import SHOW_TARGETS
from repro.sql.parser import parse


@pytest.fixture
def db(rng):
    database = Database()
    database.register_model(fraud_fc_256(), name="fraud")
    database.execute("CREATE TABLE t (id INT, x DOUBLE)")
    database.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5)")
    database.predict_labels("fraud", rng.normal(size=(4, 28)))
    database.set_slo("fraud", latency_ms=100.0)
    database.faults.arm(site="server.batch", transient=False)
    yield database
    database.close()


def test_grammar_targets_are_the_registry(db):
    assert list(db._relations) == list(SHOW_TARGETS)


def test_unknown_target_errors_list_every_target(db):
    with pytest.raises(SqlParseError) as parse_error:
        parse("SHOW bogus")
    with pytest.raises(SqlError) as session_error:
        db._execute_statement(Show("bogus"))
    for target in SHOW_TARGETS:
        assert target.upper() in str(parse_error.value)
        assert target in str(session_error.value)


@pytest.mark.parametrize("target", SHOW_TARGETS)
def test_every_target_takes_where_and_yields_typed_rows(db, target):
    schema, rows = db._relations[target]
    cursor = db.execute(f"SHOW {target}")
    assert cursor.columns == schema.names
    if schema.names != ("stat", "value"):  # mixed-type values stay as-is
        for row in rows():
            schema.validate_row(row)
    first = schema.names[0]
    filtered = db.execute(f"SHOW {target} WHERE {first} IS NULL")
    assert filtered.columns == schema.names and filtered.rows == []


def test_show_stats_where_filters_like_select(db):
    everything = db.execute("SHOW STATS").rows
    rows = db.execute("SHOW STATS WHERE stat LIKE 'bufferpool.%'").rows
    assert rows == [r for r in everything if r[0].startswith("bufferpool.")]
    assert rows


def test_show_faults_where_matches_select_over_the_same_rows(db):
    shown = db.execute("SHOW FAULTS WHERE armed = TRUE").rows
    db.create_table("faults_copy", FAULT_SCHEMA)
    db.load_rows("faults_copy", db.execute("SHOW FAULTS").rows)
    selected = db.execute("SELECT * FROM faults_copy WHERE armed = TRUE").rows
    assert shown == selected
    assert [row[0] for row in shown] == ["server.batch"]


def test_show_where_binds_like_select(db):
    with pytest.raises(BindError):
        db.execute("SHOW FAULTS WHERE nope = 1")
    with pytest.raises(BindError):
        db.execute("SHOW FAULTS WHERE armed = 'yes'")
