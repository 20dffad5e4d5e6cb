"""The statement cache: a hit is indistinguishable from a fresh parse."""

import sys
import threading

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SqlError, SqlParseError
from repro.relational.expressions import ColumnRef, Literal
from repro.sql import parse, tokenize, unparse
from repro.sql.ast import SelectItem
from repro.sql.lexer import TokenType
from repro.sql.parser import _CAPACITY, StatementCache, _Parser
from repro.telemetry.workload import fingerprint

from .test_sql_fuzz import FUZZ_SETTINGS, statements


def fresh(text):
    """The uncached parse: the oracle for every cached one."""
    return _Parser(tokenize(text)).parse_statement()


def outcome(fn, text):
    try:
        stmt = fn(text)
    except SqlError as exc:
        return type(exc), str(exc)
    return repr(stmt)  # repr tells Literal(1) from Literal(1.0)


def assert_cached_parse_is_fresh(cache, text):
    expected = outcome(fresh, text)
    assert outcome(lambda t: cache.parse(t)[0], text) == expected, text
    return expected


def with_new_literals(text, draw):
    """``text`` with each literal replaced by a random one of its class."""
    pieces, end = [], 0
    for token in tokenize(text):
        if token.type is TokenType.NUMBER:
            raw = token.value
            if any(c in raw for c in ".eE"):
                new = repr(draw(st.floats(0, 1e12, allow_nan=False, allow_infinity=False)))
            else:
                new = str(draw(st.integers(0, 10**9)))
        elif token.type is TokenType.STRING:
            raw = "'" + token.value.replace("'", "''") + "'"
            new = "'" + draw(st.text("ab'% _", max_size=6)).replace("'", "''") + "'"
        else:
            continue
        pieces += [text[end : token.position], new]
        end = token.position + len(raw)
    return "".join(pieces) + text[end:]


@FUZZ_SETTINGS
@given(statements, st.data())
def test_cached_parse_equals_fresh_parse_for_new_literals(stmt, data):
    cache = StatementCache()
    text = unparse(stmt)
    assert_cached_parse_is_fresh(cache, text)
    for __ in range(2):
        assert_cached_parse_is_fresh(cache, with_new_literals(text, data.draw))
    assert_cached_parse_is_fresh(cache, text)
    parsed, shape = cache.parse(text)
    if shape is not None:
        assert shape.fingerprint == fingerprint(fresh(text))
        assert cache.parse(text)[1] is shape  # the second parse is a hit


SELECT = "SELECT a FROM t WHERE "


@pytest.mark.parametrize(
    "texts",
    [
        [SELECT + "id = 1", SELECT + "id = 1.0", SELECT + "id = '1'"],
        [SELECT + "id = 7 LIMIT 1", SELECT + "id = 7 LIMIT 2"],
        [SELECT + "id = 7 AND s LIKE 'a%'", SELECT + "id = 7 AND s LIKE 'b%'"],
        [
            "SELECT PREDICT_PROBA(m, 0, x) FROM t WHERE id = 7",
            "SELECT PREDICT_PROBA(m, 1, x) FROM t WHERE id = 7",
        ],
    ],
)
def test_literal_classes_and_values_kept_by_value_never_share_an_entry(texts):
    cache = StatementCache()
    shapes = []
    for text in texts:
        assert_cached_parse_is_fresh(cache, text)
        shapes.append(cache.parse(text)[1])
    assert None not in shapes
    assert len({id(shape) for shape in shapes}) == len(texts)
    assert len(cache) == len(texts)


def test_slot_literals_share_an_entry():
    cache = StatementCache()
    first = cache.parse(SELECT + "id = 1 AND s = 'x'")[1]
    stmt, second = cache.parse(SELECT + "id = 2 AND s = 'y'")
    assert second is first and len(cache) == 1
    assert stmt == fresh(SELECT + "id = 2 AND s = 'y'")


def test_a_hit_raises_the_same_error_as_a_miss():
    cache = StatementCache()
    cache.parse(SELECT + "v < 1.5")
    with pytest.raises(SqlParseError) as hit:
        cache.parse(SELECT + "v < 1e")
    with pytest.raises(SqlParseError) as miss:
        fresh(SELECT + "v < 1e")
    assert str(hit.value) == str(miss.value) == "malformed numeric literal '1e'"


def test_threads_parsing_one_shape_get_their_own_values():
    cache = StatementCache()
    barrier = threading.Barrier(8)
    errors = []

    def worker(tid):
        barrier.wait()
        for i in range(200):
            key = tid * 1000 + i
            stmt = cache.parse(f"{SELECT}id = {key} AND name = 'n{key}'")[0]
            if (stmt.where.left.right, stmt.where.right.right) != (
                Literal(key), Literal(f"n{key}")
            ):
                errors.append((tid, i, stmt.where))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-parse
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(cache) == 1


def test_mutating_a_returned_statement_does_not_change_the_next_hit():
    cache = StatementCache()
    text = "SELECT a, PREDICT(m, x, y) FROM t AS r WHERE id = 1 ORDER BY a LIMIT 3"
    stmt = cache.parse(text)[0]
    stmt.items.append(SelectItem(ColumnRef("z")))
    stmt.items[1].expr.args.clear()
    stmt.items[0].alias = "q"
    stmt.table.name = "other"
    stmt.order_by.clear()
    stmt.where = None
    stmt.limit = None
    again = text.replace("id = 1", "id = 2")
    assert cache.parse(again)[0] == fresh(again)
    assert cache.parse(text)[0] == fresh(text)


def test_insert_values_bypass_the_cache():
    cache = StatementCache()
    stmt, shape = cache.parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    assert shape is None and len(cache) == 0
    assert stmt == fresh("INSERT INTO t VALUES (1, 'a'), (2, 'b')")


def test_capacity_bounds_the_cache():
    cache = StatementCache()
    shapes = [cache.parse(f"SELECT c{i} FROM t WHERE id = 1")[1] for i in range(_CAPACITY + 1)]
    assert len(cache) == _CAPACITY
    # the least recently used shape went: parsing it again is a miss
    assert cache.parse("SELECT c1 FROM t WHERE id = 1")[1] is shapes[1]
    assert cache.parse("SELECT c0 FROM t WHERE id = 1")[1] is not shapes[0]
    assert len(cache) == _CAPACITY


def test_module_parse_goes_through_the_cache():
    text = SELECT + "id = 123456"
    assert repr(parse(text)) == repr(fresh(text))
