"""Prepared point statements.

A text whose shape the statement cache knows is found by its fast key
(one regex pass, no lex), and a SELECT shape re-runs a plan prepared once
per write generation, with each call's slot values written into its
parameter cells.  These tests hold both to what a fresh lex, parse and
plan would do.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import BindError, ReproError, SqlLexError
from repro.models import fraud_fc_256
from repro.relational.schema import ColumnType, Schema
from repro.sql.lexer import fast_key, fast_key_agrees, lex, tokenize
from repro.sql.parser import STATEMENTS, StatementCache, _Parser

from .test_lexer_oracle import fragments


def fresh(text):
    return _Parser(tokenize(text)).parse_statement()


def prepared_op(db, sql):
    """The operator tree ``db`` keeps for ``sql``'s shape, or None."""
    shape = STATEMENTS.find(sql)[0]
    entry = db._statements._plans.get(shape)
    return None if entry is None else entry.op


def operator_names(explained: str) -> list[str]:
    return [line.strip().split("(")[0] for line in explained.split("\n") if line.strip()]


# -- the fast key ---------------------------------------------------------------

NUMBERISH = st.sampled_from(
    ["t.5", "1e5", "1E+5", "f0", "x1", "1x", "1_", "-1", "- 1", "-0.0", "12", "3.25",
     "007", "1.", ".5", "a.b", "1.2.3", "= 4", "(7)", "9223372036854775808"]
)
texts = st.lists(st.one_of(fragments, NUMBERISH), max_size=24).map("".join)


def refilled(key, draw) -> str:
    """A text with ``key``: its runs replaced by fresh runs of their class."""
    pieces, points = key
    digits = st.text("0123456789", min_size=1, max_size=6)
    out = [pieces[0]]
    for point, piece in zip(points, pieces[1:]):
        run = draw(digits) if point is None else f"{draw(digits)}.{draw(digits)}"
        out += [run, piece]
    return "".join(out)


@settings(max_examples=400, deadline=None)
@given(texts, st.data())
def test_a_fast_key_stands_for_what_lex_finds(text, data):
    fast = fast_key(text)
    if fast is None:
        assert not text.isascii() or "'" in text or '"' in text or "--" in text
        return
    key, literals = fast
    try:
        tokens, shape, lexed = lex(text)
    except SqlLexError:
        return  # no entry is written for a text that does not lex
    if not fast_key_agrees(text, tokens):
        return  # nor for one whose runs are not exactly its NUMBER tokens
    assert literals == lexed
    # Every text with this key lexes to the same lexemes, its runs as its
    # NUMBER tokens and literals: what a cached entry promises.
    other = refilled(key, data.draw)
    other_key, other_literals = fast_key(other)
    assert other_key == key
    other_tokens, other_shape, other_lexed = lex(other)
    assert other_shape == shape and other_lexed == other_literals
    assert fast_key_agrees(other, other_tokens)


@pytest.mark.parametrize(
    "text, agrees",
    [
        ("SELECT a FROM t WHERE id = 17 AND v <= 2.5", True),
        ("SELECT f0, f27 FROM t WHERE x = -1", True),
        ("SELECT a FROM t WHERE v < 1e5", False),
        ("SELECT t.5 FROM t", False),
        ("SELECT a FROM t WHERE v < 1.", False),
    ],
)
def test_which_texts_agree(text, agrees):
    assert fast_key_agrees(text, lex(text)[0]) is agrees


def test_texts_with_quotes_comments_or_non_ascii_have_no_fast_key():
    for text in ("SELECT a FROM t WHERE s = 'x'", 'SELECT "a" FROM t',
                 "SELECT a FROM t -- 1", "SELECT é FROM t WHERE a = 1"):
        assert fast_key(text) is None


TEMPLATES = [
    "SELECT a, b FROM t WHERE a = {i} AND b <= {f}",
    "SELECT a FROM t WHERE a > -{i} OR b < {f} ORDER BY a LIMIT 5",
    "SELECT COUNT(*) AS n FROM t WHERE b BETWEEN {f} AND {f}",
    "DELETE FROM t WHERE a = {i}",
    "SELECT a + {i} AS x FROM t WHERE NOT (a <> {i})",
]
ints = st.integers(0, 2**70).map(str)
floats = st.tuples(st.integers(0, 10**6), st.integers(0, 10**3)).map(lambda p: f"{p[0]}.{p[1]}")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TEMPLATES), st.lists(st.tuples(ints, floats), min_size=2, max_size=4))
def test_a_fast_hit_builds_the_statement_a_fresh_parse_builds(template, values):
    cache = StatementCache()
    for n, (i, f) in enumerate(values):
        text = template.format(i=i, f=f)
        shape, literals, stmt = cache.find(text)
        if n:  # the first text wrote the fast entry: later ones skip lex
            assert stmt is None
        assert (stmt if stmt is not None else shape.build(literals)) == fresh(text)


def test_a_limit_count_is_still_kept_by_value():
    cache = StatementCache()
    first = cache.find("SELECT a FROM t WHERE a = 1 LIMIT 2")[0]
    second, __, stmt = cache.find("SELECT a FROM t WHERE a = 1 LIMIT 3")
    assert second is not first and stmt is not None and stmt.limit == 3
    assert cache.find("SELECT a FROM t WHERE a = 9 LIMIT 3")[0] is second


# -- prepared execution against the row path ---------------------------------------

COLUMNS = {"a": ColumnType.INT, "b": ColumnType.DOUBLE, "c": ColumnType.INT}
INT_VALUES = st.one_of(
    st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 0, -1]),
    st.integers(-4, 4),
)
FLOAT_VALUES = st.one_of(
    st.sampled_from([math.nan, -0.0, 0.0, math.inf, -math.inf, 2.0**53, 9.2e18, -1.5]),
    st.integers(-8, 8).map(lambda k: k / 2),
)
ROW = st.tuples(INT_VALUES, FLOAT_VALUES, INT_VALUES)

#: Literal magnitudes by class: ints past 2**53 and past int64, floats
#: past 2**53, and -0.0 (a minus before 0.0).
INT_LITERALS = st.sampled_from([0, 1, 3, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**64])
FLOAT_LITERALS = st.sampled_from([0.0, 0.5, 1.5, 2.0**53, 9.2e18, 1e300])

comparisons = st.tuples(
    st.sampled_from(sorted(COLUMNS)),
    st.sampled_from(["=", "!=", "<>", "<", "<=", ">", ">="]),
    st.one_of(
        st.sampled_from(sorted(COLUMNS)),  # another column
        st.tuples(st.sampled_from(["int", "float"]), st.booleans()),  # (class, minus)
    ),
    st.booleans(),  # literal on the left
)
predicates = st.recursive(
    comparisons,
    lambda inner: st.one_of(
        st.tuples(st.just("NOT"), inner),
        st.tuples(st.sampled_from(["AND", "OR"]), inner, inner),
    ),
    max_leaves=4,
)


def slots_of(pred) -> list[str]:
    """The class of each slot literal, in text order."""
    if pred[0] == "NOT":
        return slots_of(pred[1])
    if pred[0] in ("AND", "OR"):
        return slots_of(pred[1]) + slots_of(pred[2])
    rhs = pred[2]
    return [] if isinstance(rhs, str) else [rhs[0]]


def render(pred, values: list) -> str:
    """SQL text for ``pred`` with ``values`` for its slots (consumed)."""
    if pred[0] == "NOT":
        return f"NOT ({render(pred[1], values)})"
    if pred[0] in ("AND", "OR"):
        return f"({render(pred[1], values)}) {pred[0]} ({render(pred[2], values)})"
    column, op, rhs, swapped = pred
    if isinstance(rhs, str):
        other = rhs
    else:
        other = ("-" if rhs[1] else "") + repr(values.pop(0))
    return f"{other} {op} {column}" if swapped else f"{column} {op} {other}"


def draw_values(data, slots):
    return [data.draw(INT_LITERALS if kind == "int" else FLOAT_LITERALS) for kind in slots]


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(ROW, max_size=300),
    nulls=st.sets(st.integers(0, 299), max_size=3),
    pred=predicates,
    data=st.data(),
)
def test_prepared_execution_equals_the_row_path(rows, nulls, pred, data):
    """Two or three calls of one shape (the first plans, later ones re-run
    the prepared plan with new slot values) each return what evaluating a
    fresh parse's WHERE row by row over the table returns."""
    rows = [(None, *row[1:]) if i in nulls else row for i, row in enumerate(rows)]
    schema = Schema.of(*COLUMNS.items())
    with Database(page_size=4096) as db:  # ~130 rows a page: NULL-free pages too
        db.create_table("t", schema)
        db.load_rows("t", rows)
        stored = db.execute("SELECT a, b, c FROM t").rows
        slots = slots_of(pred)
        texts = []
        for __ in range(data.draw(st.integers(2, 3))):
            sql = "SELECT a, b, c FROM t WHERE " + render(pred, draw_values(data, slots))
            texts.append(sql)
            where = fresh(sql).where.bind(schema)
            expected = [row for row in stored if where.eval(row) is True]
            assert repr(db.execute(sql).rows) == repr(expected), sql
        assert prepared_op(db, texts[-1]) is not None


# -- invalidation -------------------------------------------------------------------

FEATURES = ", ".join(f"f{i}" for i in range(28))


def fraud_db(n=16, **options):
    from repro.data import fraud_transactions

    features, __, rows = fraud_transactions(n, seed=7)
    db = Database(**options)
    db.create_table(
        "tx",
        Schema.of(
            ("id", ColumnType.INT),
            *((f"f{i}", ColumnType.DOUBLE) for i in range(28)),
            ("label", ColumnType.INT),
        ),
    )
    db.load_rows("tx", rows)
    return db, features


def point(model: str, key: int) -> str:
    return f"SELECT id, PREDICT({model}, {FEATURES}) FROM tx WHERE id = {key}"


def test_a_repeated_shape_reuses_its_plan():
    with Database() as db:
        db.execute("CREATE TABLE t (a INT, b DOUBLE)")
        db.load_rows("t", [(i, i / 2) for i in range(10)])
        assert db.execute("SELECT a FROM t WHERE a = 3 AND b < 9.5").rows == [(3,)]
        op = prepared_op(db, "SELECT a FROM t WHERE a = 3 AND b < 9.5")
        assert db.execute("SELECT a FROM t WHERE a = 7 AND b < 1.5").rows == []
        assert db.execute("SELECT a FROM t WHERE a = 2 AND b < 1.5").rows == [(2,)]
        assert prepared_op(db, "SELECT a FROM t WHERE a = 1 AND b < 1.5") is op


def test_drop_and_create_with_another_schema_replans():
    with Database() as db:
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.load_rows("t", [(1, 10), (2, 20)])
        assert db.execute("SELECT * FROM t WHERE a < 2").rows == [(1, 10)]
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (b DOUBLE, a INT, z INT)")
        db.load_rows("t", [(0.5, 1, 7), (1.5, 3, 8)])
        cursor = db.execute("SELECT * FROM t WHERE a < 5")
        assert cursor.columns == ("b", "a", "z") and cursor.rows == [(0.5, 1, 7), (1.5, 3, 8)]


def test_an_insert_that_flips_the_join_build_side_replans():
    sql = "SELECT l.k, r.y FROM l JOIN r ON l.k = r.k WHERE l.x < {}"
    with Database() as db:
        db.execute("CREATE TABLE l (k INT, x INT)")
        db.execute("CREATE TABLE r (k INT, y INT)")
        db.load_rows("l", [(1, 0), (2, 0)])
        db.load_rows("r", [(k, 10 * k) for k in range(10)])
        assert db.execute(sql.format(100)).rows == [(1, 10), (2, 20)]
        before = operator_names(prepared_op(db, sql.format(1)).explain())
        assert before == operator_names(db.explain(sql.format(1)))
        db.execute("INSERT INTO l VALUES " + ", ".join(f"({k}, 5)" for k in range(3, 30)))
        assert sorted(db.execute(sql.format(6)).rows) == [(k, 10 * k) for k in range(1, 10)]
        after = operator_names(prepared_op(db, sql.format(1)).explain())
        assert after != before and after == operator_names(db.explain(sql.format(1)))


def test_set_option_replans_and_the_new_representation_runs():
    db, __ = fraud_db()
    with db:
        db.register_model(fraud_fc_256(), name="fraud")
        first = db.execute(point("fraud", 3))
        op = prepared_op(db, point("fraud", 3))
        assert "relation-centric" not in first.stats.representations
        db.set_option("memory_threshold_bytes", 1024)
        again = db.execute(point("fraud", 3))
        assert prepared_op(db, point("fraud", 3)) is not op
        assert "relation-centric" in again.stats.representations
        assert again.rows == first.rows


def test_a_model_registered_after_a_bind_error_serves_the_shape():
    """There is no statement that drops a model; registering one is the
    write that turns a shape's BindError into an answer."""
    db, features = fraud_db()
    with db:
        with pytest.raises(BindError):
            db.execute(point("late", 1))
        model = fraud_fc_256(seed=3)
        db.register_model(model, name="late")
        label = int(np.argmax(model.forward(features[4:5]), axis=-1)[0])
        assert db.execute(point("late", 4)).rows == [(4, label)]


def test_deploy_and_rollback_change_the_answer_as_a_fresh_statement_would():
    db, features = fraud_db(64)
    base, other = fraud_fc_256(seed=0), fraud_fc_256(seed=5)
    labels = {
        name: np.argmax(model.forward(features), axis=-1)
        for name, model in (("base", base), ("other", other))
    }
    key = int(np.flatnonzero(labels["base"] != labels["other"])[0])
    with db:
        db.register_model(base, name="fraud")
        db.register_model_version("fraud", "v2", model=other)
        assert db.execute(point("fraud", key)).rows == [(key, labels["base"][key])]
        db.execute("DEPLOY MODEL fraud VERSION v2")
        assert db.execute(point("fraud", key)).rows == [(key, labels["other"][key])]
        db.execute("ROLLBACK MODEL fraud")
        assert db.execute(point("fraud", key)).rows == [(key, labels["base"][key])]


def test_threads_running_one_shape_get_their_own_rows():
    with Database() as db:
        db.execute("CREATE TABLE t (a INT, b DOUBLE)")
        db.load_rows("t", [(i, i * 0.25) for i in range(64)])
        barrier = threading.Barrier(2)
        errors = []

        def worker(offset):
            barrier.wait()
            for i in range(300):
                key = (offset + i) % 64
                got = db.execute(f"SELECT a, b FROM t WHERE a = {key} AND b >= 0.0").rows
                if got != [(key, key * 0.25)]:
                    errors.append((offset, i, got))

        threads = [threading.Thread(target=worker, args=(t * 32,)) for t in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-statement
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


def test_explain_analyze_leaves_the_prepared_plan_uninstrumented():
    sql = "SELECT a FROM t WHERE a > 2"
    with Database() as db:
        db.execute("CREATE TABLE t (a INT)")
        db.load_rows("t", [(i,) for i in range(5)])
        db.execute(sql)
        op = prepared_op(db, sql)
        db.explain_analyze(sql)
        db.execute("EXPLAIN ANALYZE " + sql)
        assert db.execute("SELECT a FROM t WHERE a > 3").rows == [(4,)]
        assert prepared_op(db, sql) is op
        stack = [op]
        while stack:
            node = stack.pop()
            assert "batches" not in vars(node) and "rows" not in vars(node)
            stack.extend(node.children())


def test_system_relations_and_slotless_statements_are_not_prepared():
    with Database() as db:
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("SELECT name FROM sys.tables WHERE rows > 1")
        db.execute("EXPLAIN SELECT a FROM t WHERE a = 1")
        assert len(db._statements._plans) == 0
        db.execute("SELECT a FROM t WHERE a = 1")
        assert len(db._statements._plans) == 1


def test_a_table_replaced_without_a_write_section_is_seen():
    """The relation engine re-stores a dropped or half-stored weight table
    under the read lock, so no write generation passes: each call checks
    that the tables its plan scans are still the catalog's."""
    with Database() as db:
        db.execute("CREATE TABLE w (a INT)")
        db.load_rows("w", [(1,)])
        assert db.execute("SELECT a FROM w WHERE a > 0").rows == [(1,)]
        db.catalog.drop_table("w")
        info = db.catalog.create_table("w", Schema.of(("a", ColumnType.INT)))
        info.heap.insert((5,))
        info.row_count += 1
        assert db.execute("SELECT a FROM w WHERE a > 0").rows == [(5,)]


def _plan_spans(db) -> int:
    return sum(span.name == "plan" for span in db.telemetry.tracer.finished)


def test_a_shape_that_only_plans_with_its_literals_is_planned_once_a_call():
    """``a + 1`` in the select list equals ``a + 1`` in GROUP BY only as
    literals (two slots never equal as parameters): each call plans its own
    literals, and the refused parameterised plan is not retried.  Each
    SELECT counts one plan and one "plan" span, the refused one too."""
    sql = "SELECT a + {} AS k, COUNT(*) AS n FROM t GROUP BY a + {}"
    with Database() as db:
        db.execute("CREATE TABLE t (a INT)")
        db.load_rows("t", [(1,), (1,), (2,)])
        plans = db.telemetry.registry.counter("planner_selects_total", "")
        before, spans = plans.value, _plan_spans(db)
        for k in (1, 2, 1):
            assert db.execute(sql.format(k, k)).rows == [(1 + k, 2), (2 + k, 1)]
        assert plans.value - before == 3
        assert _plan_spans(db) - spans == 3


def test_a_select_that_fails_to_plan_counts_one_plan():
    with Database() as db:
        plans = db.telemetry.registry.counter("planner_selects_total", "")
        before, spans = plans.value, _plan_spans(db)
        for k in (1, 2):
            with pytest.raises(ReproError):
                db.execute(f"SELECT a FROM missing WHERE a = {k}")
        assert plans.value - before == 2
        assert _plan_spans(db) - spans == 2
