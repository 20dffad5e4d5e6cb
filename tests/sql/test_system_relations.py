"""System relations: one registry behind ``FROM sys.<target>``, and
``SHOW <target> [WHERE]`` as sugar for ``SELECT * FROM sys.<target>``."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro import Database
from repro.errors import (
    BindError,
    CatalogError,
    ExecutionError,
    SchemaError,
    SqlError,
    SqlParseError,
)
from repro.faults import FaultRow
from repro.models import fraud_fc_256
from repro.relational.schema import ColumnType, Schema
from repro.sql.lexer import SHOW_TARGETS
from repro.sql.parser import parse
from repro.telemetry import events


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


def test_api_md_table_lists_the_registry(db):
    """API.md's "System relations" table: one row per relation, in
    registry order, each with its schema's columns in order."""
    api = (Path(__file__).parents[2] / "API.md").read_text(encoding="utf-8")
    section = api.split("\n### System relations\n", 1)[1].split("\n#", 1)[0]
    documented = []
    for line in section.splitlines():
        if line.startswith("| `"):
            name, columns = [cell.strip(" `") for cell in line.split("|")[1:3]]
            documented.append((name, tuple(c.strip() for c in columns.split(","))))
    assert documented == [
        (name, row_type._fields) for name, (row_type, __) in db._relations.items()
    ]


def test_unknown_target_errors_list_every_target(db):
    with pytest.raises(SqlParseError) as parse_error:
        parse("SHOW bogus")
    with pytest.raises(SqlError) as session_error:
        db.execute("SELECT * FROM sys.bogus")
    for target in SHOW_TARGETS:
        assert target.upper() in str(parse_error.value)
        assert target in str(session_error.value)


def _typed(rows):
    return [[(type(v), v) for v in row] for row in rows]


def _freeze(db, target):
    """Pin a relation's current rows: counters and events move with every
    statement, and a test compares two reads of the same rows."""
    row_type, rows = db._relations[target]
    frozen = rows()
    db._relations[target] = (row_type, lambda: frozen)
    return frozen


@pytest.mark.parametrize("target", SHOW_TARGETS)
def test_every_target_takes_where_and_yields_typed_rows(db, target):
    row_type, rows = db._relations[target]
    schema = Schema.of_row(row_type)
    cursor = db.execute(f"SHOW {target}")
    assert cursor.columns == schema.names
    assert all(isinstance(row, row_type) for row in rows())
    if schema.names[-2:] != ("stat", "value"):  # mixed-type values stay as-is
        for row in rows():
            schema.validate_row(row)
    first = schema.names[0]
    filtered = db.execute(f"SHOW {target} WHERE {first} IS NULL")
    assert filtered.columns == schema.names and filtered.rows == []
    frozen = _freeze(db, target)
    for where in ("", f" WHERE {first} IS NOT NULL"):
        show = f"SHOW {target}{where}"
        select = f"SELECT * FROM sys.{target}{where}"
        assert parse(show) == parse(select)
        shown, selected = db.execute(show), db.execute(select)
        assert shown.columns == selected.columns == schema.names
        expected = [row for row in frozen if not where or row[0] is not None]
        assert _typed(shown.rows) == _typed(selected.rows) == _typed(expected)


def test_select_groups_system_rows(db):
    kinds = Counter(row[2] for row in _freeze(db, "events"))
    counts = db.execute(
        "SELECT kind, COUNT(*) AS n FROM sys.events GROUP BY kind ORDER BY kind"
    ).rows
    assert counts == sorted(kinds.items()) and counts


def test_aliased_join_of_two_system_relations(db):
    joined = db.execute(
        "SELECT m.name, m.params, s.objective, s.window FROM sys.models AS m "
        "JOIN sys.slo s ON m.name = s.model ORDER BY s.window"
    )
    assert joined.columns == ("name", "params", "objective", "window")
    params = {name: n for name, __, n in db.execute("SHOW MODELS").rows}
    expected = sorted(
        ((model, params[model], objective, window)
         for model, objective, __, window, *__ in db.execute("SHOW SLO").rows),
        key=lambda row: row[3],
    )
    assert joined.rows == expected and len(expected) == 2


def test_order_by_and_limit_over_a_system_relation(db):
    db.execute("CREATE TABLE u (id INT)")
    rows = db.execute(
        "SELECT name, rows FROM sys.tables ORDER BY name DESC LIMIT 1"
    ).rows
    assert rows == [("u", 0)]
    offset = db.execute("SELECT name FROM sys.tables ORDER BY name LIMIT 1 OFFSET 1")
    assert offset.rows == [("u",)]


def test_create_table_as_snapshots_a_system_relation(db):
    db.execute("CREATE TABLE snap AS SELECT * FROM sys.faults")
    assert db.catalog.get_table("snap").schema == Schema.of_row(FaultRow)
    assert db.execute("SELECT * FROM snap").rows == db.execute("SHOW FAULTS").rows


def test_explain_names_the_system_scan_without_reading_it(db):
    calls = []
    row_type, rows = db._relations["faults"]
    db._relations["faults"] = (row_type, lambda: calls.append(1) or rows())
    plan = db.explain("SELECT f.site FROM sys.faults AS f WHERE f.armed = TRUE")
    assert "GeneratorScan(sys.faults AS f)" in plan
    assert db.explain("SHOW FAULTS").endswith("GeneratorScan(sys.faults)")
    assert calls == []
    db.execute("SHOW FAULTS")
    assert calls == [1]


def test_sys_names_are_reserved(db):
    with pytest.raises(CatalogError, match="reserved"):
        db.execute('CREATE TABLE "sys.events" (id INT)')
    with pytest.raises(CatalogError, match="reserved"):
        db.create_table("SYS.tables", Schema.of(("id", ColumnType.INT)))
    with pytest.raises(CatalogError, match="reserved"):
        db.execute('CREATE TABLE "sys.x" AS SELECT * FROM t')
    # A system relation takes no writes: the grammar has no sys. target
    # for INSERT, and a quoted name finds no table.
    with pytest.raises(SqlParseError):
        db.execute("INSERT INTO sys.events VALUES (1)")
    with pytest.raises(CatalogError):
        db.execute('INSERT INTO "sys.events" VALUES (1)')


def test_show_stats_where_filters_like_select(db):
    everything = db.execute("SHOW STATS").rows
    rows = db.execute("SHOW STATS WHERE stat LIKE 'bufferpool.%'").rows
    assert rows == [r for r in everything if r[0].startswith("bufferpool.")]
    assert rows


def test_show_faults_where_matches_select_over_the_same_rows(db):
    shown = db.execute("SHOW FAULTS WHERE armed = TRUE").rows
    db.create_table("faults_copy", Schema.of_row(FaultRow))
    db.load_rows("faults_copy", db.execute("SHOW FAULTS").rows)
    selected = db.execute("SELECT * FROM faults_copy WHERE armed = TRUE").rows
    assert shown == selected
    assert [row[0] for row in shown] == ["server.batch"]


def test_show_where_binds_like_select(db):
    with pytest.raises(BindError):
        db.execute("SHOW FAULTS WHERE nope = 1")
    with pytest.raises(BindError):
        db.execute("SHOW FAULTS WHERE armed = 'yes'")


def test_timeline_key_is_pushed_into_the_scan(request, monkeypatch):
    """``SHOW TIMELINE <n>`` over a full span ring builds that one trace's
    timeline, and answers what the unpushed plan answers."""
    db = Database()
    request.addfinalizer(db.close)
    tracer = db.telemetry.tracer
    traces = []
    for __ in range(db.config.telemetry_max_spans // 4):
        with tracer.span("request") as root:
            traces.append(root.trace_id)
            for __ in range(3):
                with tracer.span("stage"):
                    pass
    assert len(tracer.finished) == db.config.telemetry_max_spans
    trace = traces[len(traces) // 2]
    built = []
    timeline_rows = events.timeline_rows
    monkeypatch.setattr(
        events, "timeline_rows", lambda *a: built.append(1) or timeline_rows(*a)
    )
    pushed = f"SHOW TIMELINE {trace}"
    unpushed = (
        "SELECT at_ms, source, what, detail FROM sys.timeline "
        f"WHERE trace_id + 0 = {trace}"
    )
    scan = f"GeneratorScan(sys.timeline, trace_id = {trace})"
    assert db.explain(pushed).endswith(scan)
    assert db.explain(unpushed).endswith("GeneratorScan(sys.timeline)")
    rows = db.execute(pushed).rows
    assert len(built) == 1
    assert rows == db.execute(unpushed).rows and len(rows) == 5
    assert len(built) > len(traces) // 2


def test_workload_detail_key_is_pushed_into_the_scan(db):
    fp = db.execute("SHOW WORKLOAD").rows[0][0]
    pushed = f"SHOW WORKLOAD '{fp}'"
    unpushed = (
        f"SELECT stat, value FROM sys.workload_detail WHERE fingerprint LIKE '{fp}'"
    )
    scan = f"GeneratorScan(sys.workload_detail, fingerprint = '{fp}')"
    assert db.explain(pushed).endswith(scan)
    assert db.explain(unpushed).endswith("GeneratorScan(sys.workload_detail)")
    rows = db.execute(pushed).rows
    assert rows == db.execute(unpushed).rows and ("fingerprint", fp) in rows


@pytest.mark.parametrize(
    "sql", ["SELECT * FROM sys.stats ORDER BY value", "SELECT MAX(value) FROM sys.stats"]
)
def test_mixed_type_values_neither_order_nor_fold(db, sql):
    assert {int, str} <= {type(value) for __, value in db.execute("SHOW STATS").rows}
    with pytest.raises(ExecutionError, match=r"\bvalue\b"):
        db.execute(sql)


def test_create_table_as_refuses_mixed_type_values(db):
    with pytest.raises(SchemaError, match="column 'value' of type TEXT"):
        db.execute("CREATE TABLE snap AS SELECT * FROM sys.stats")
    with pytest.raises(CatalogError):
        db.catalog.get_table("snap")
