"""Property-based SQL round-trip fuzzing.

Two properties:

* **Round trip**: for randomly generated ASTs in the parser's canonical
  form, ``parse(unparse(ast)) == ast`` and unparsing is a fixed point.
* **Crash-freedom**: random byte mutations of valid SQL either parse or
  raise a :class:`~repro.errors.SqlError` subclass — never an
  ``AttributeError`` / ``IndexError`` / ``ValueError`` leaking from the
  parser's internals.

Canonical-form rules the strategies respect (the parser normalizes
these, so generating anything else could not round-trip):

* identifiers are lowercase and never (soft) keywords or aggregate names;
* expression-position literals are non-negative (``-5`` parses as
  ``UnaryOp("-", Literal(5))``; negatives appear only in INSERT VALUES);
* logical ops are uppercase, aggregate names uppercase, scalar function
  calls lowercase;
* HAVING only accompanies GROUP BY, OFFSET only accompanies LIMIT.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SqlError
from repro.relational.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Comparison,
    FunctionCall,
    IsNull,
    Like,
    Literal,
    LogicalOp,
    UnaryOp,
)
from repro.relational.schema import ColumnType
from repro.sql import parse, unparse
from repro.sql.ast import (
    AggregateCall,
    CreateTable,
    CreateTableAs,
    Delete,
    DropTable,
    Explain,
    Insert,
    InsertSelect,
    Join,
    PredictCall,
    Select,
    SelectItem,
    Star,
    TableRef,
    UnionAll,
    Update,
)
from repro.sql.lexer import KEYWORDS, SHOW_TARGETS, SOFT_KEYWORDS

RESERVED = (
    {k.lower() for k in KEYWORDS}
    | {k.lower() for k in SOFT_KEYWORDS}
    | {"sum", "avg", "min", "max", "count", "predict", "predict_proba"}
)

idents = st.from_regex(r"[a-z][a-z0-9_]{0,9}", fullmatch=True).filter(
    lambda s: s not in RESERVED
)

safe_strings = st.text(
    alphabet="abcXYZ 0123456789_%'.,!?-",
    max_size=12,
).filter(lambda s: "--" not in s)

# Expression-position literals: non-negative numbers only (see module doc).
literal_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False),
    safe_strings,
)

CMP_OPS = ["=", "<", ">", "<=", ">=", "<>", "!="]
ARITH_OPS = ["+", "-", "*", "/", "%"]
SCALAR_FUNCS = ["abs", "sqrt", "exp", "ln", "floor", "ceil", "round", "sign"]


def expressions(max_leaves: int = 12):
    base = st.one_of(
        idents.map(ColumnRef),
        literal_values.map(Literal),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(ARITH_OPS), children, children).map(
                lambda t: BinaryOp(t[0], t[1], t[2])
            ),
            st.tuples(st.sampled_from(CMP_OPS), children, children).map(
                lambda t: Comparison(t[0], t[1], t[2])
            ),
            st.tuples(st.sampled_from(["AND", "OR"]), children, children).map(
                lambda t: LogicalOp(t[0], t[1], t[2])
            ),
            children.map(lambda e: UnaryOp("NOT", e)),
            children.map(lambda e: UnaryOp("-", e)),
            st.tuples(children, st.booleans()).map(
                lambda t: IsNull(t[0], negated=t[1])
            ),
            st.tuples(children, safe_strings, st.booleans()).map(
                lambda t: Like(t[0], t[1], negated=t[2])
            ),
            st.tuples(
                st.lists(st.tuples(children, children), min_size=1, max_size=2),
                st.one_of(st.none(), children),
            ).map(lambda t: CaseWhen(tuple(t[0]), t[1])),
            st.tuples(
                st.sampled_from(SCALAR_FUNCS),
                st.lists(children, min_size=1, max_size=2),
            ).map(lambda t: FunctionCall(t[0], tuple(t[1]))),
        )

    return st.recursive(base, extend, max_leaves=max_leaves)


aggregate_calls = st.one_of(
    st.just(AggregateCall("COUNT_STAR", None)),
    st.tuples(
        st.sampled_from(["SUM", "AVG", "MIN", "MAX", "COUNT"]), expressions(4)
    ).map(lambda t: AggregateCall(t[0], t[1])),
)

predict_calls = st.tuples(
    idents,
    st.lists(expressions(3), min_size=1, max_size=3),
    st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
).map(lambda t: PredictCall(t[0], t[1], proba_class=t[2]))

select_items = st.one_of(
    st.just(SelectItem(Star())),
    st.tuples(
        st.one_of(expressions(6), aggregate_calls, predict_calls),
        st.one_of(st.none(), idents),
    ).map(lambda t: SelectItem(t[0], alias=t[1])),
)

# A base table or a system relation (``sys.<target>``; every SHOW form
# parses to a SELECT over one, sys.timeline and sys.workload_detail too).
table_refs = st.tuples(
    st.one_of(idents, st.sampled_from([f"sys.{t}" for t in SHOW_TARGETS])),
    st.one_of(st.none(), idents),
).map(lambda t: TableRef(t[0], alias=t[1]))

joins = st.tuples(
    table_refs, expressions(4), st.sampled_from(["inner", "left"])
).map(lambda t: Join(t[0], t[1], kind=t[2]))


@st.composite
def selects(draw):
    group_by = draw(st.lists(expressions(3), max_size=2))
    having = draw(st.one_of(st.none(), expressions(3))) if group_by else None
    limit = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=999)))
    offset = (
        draw(st.integers(min_value=0, max_value=99)) if limit is not None else 0
    )
    return Select(
        items=draw(st.lists(select_items, min_size=1, max_size=3)),
        table=draw(table_refs),
        joins=draw(st.lists(joins, max_size=2)),
        where=draw(st.one_of(st.none(), expressions(6))),
        group_by=group_by,
        order_by=draw(
            st.lists(st.tuples(expressions(3), st.booleans()), max_size=2)
        ),
        limit=limit,
        offset=offset,
        distinct=draw(st.booleans()),
        having=having,
    )


column_types = st.sampled_from(list(ColumnType))

# INSERT VALUES literals may be negative — the only negative-literal spot.
insert_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False),
    safe_strings,
)

statements = st.one_of(
    selects(),
    st.lists(selects(), min_size=2, max_size=3).map(UnionAll),
    st.tuples(selects(), st.booleans()).map(lambda t: Explain(t[0], analyze=t[1])),
    st.tuples(idents, selects()).map(lambda t: CreateTableAs(t[0], t[1])),
    st.tuples(idents, selects()).map(lambda t: InsertSelect(t[0], t[1])),
    st.tuples(
        idents,
        st.lists(st.tuples(idents, column_types), min_size=1, max_size=4),
    ).map(lambda t: CreateTable(t[0], [list(c) for c in map(tuple, t[1])])),
    idents.map(DropTable),
    st.tuples(
        idents,
        st.lists(
            st.lists(insert_values, min_size=1, max_size=4),
            min_size=1,
            max_size=3,
        ),
    ).map(lambda t: Insert(t[0], t[1])),
    st.tuples(idents, st.one_of(st.none(), expressions(5))).map(
        lambda t: Delete(t[0], where=t[1])
    ),
    st.tuples(
        idents,
        st.lists(st.tuples(idents, expressions(4)), min_size=1, max_size=3),
        st.one_of(st.none(), expressions(4)),
    ).map(lambda t: Update(t[0], t[1], where=t[2])),
)

FUZZ_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def normalize(stmt):
    """Dataclass equality quirks: CreateTable holds lists of tuples/lists
    depending on producer; compare via a canonical form."""
    if isinstance(stmt, CreateTable):
        return CreateTable(stmt.name, [tuple(c) for c in stmt.columns])
    if isinstance(stmt, Insert):
        return Insert(stmt.table, [list(r) for r in stmt.rows])
    if isinstance(stmt, Update):
        return Update(stmt.table, [tuple(a) for a in stmt.assignments], stmt.where)
    return stmt


@FUZZ_SETTINGS
@given(statements)
def test_parse_unparse_round_trip(stmt):
    sql = unparse(stmt)
    reparsed = parse(sql)
    assert normalize(reparsed) == normalize(stmt), sql


@FUZZ_SETTINGS
@given(statements)
def test_unparse_is_a_fixed_point(stmt):
    sql = unparse(stmt)
    assert unparse(parse(sql)) == sql


SEED_CORPUS = [
    "SELECT id, PREDICT(fraud, f0, f1) AS score FROM tx WHERE f0 > 0.5",
    "SELECT COUNT(*) AS n, SUM(v) AS total FROM t GROUP BY k HAVING (SUM(v) > 1)",
    "CREATE TABLE t (id INT, name TEXT, score DOUBLE, ok BOOL)",
    "INSERT INTO t VALUES (1, 'a', -0.5, TRUE), (2, 'b', NULL, FALSE)",
    "SELECT a.x, b.y FROM a AS a JOIN b AS b ON (a.id = b.id) ORDER BY a.x DESC LIMIT 10 OFFSET 2",
    "UPDATE t SET v = (v + 1) WHERE (id BETWEEN 3 AND 9)",
    "DELETE FROM t WHERE name LIKE 'x%'",
    "EXPLAIN ANALYZE SELECT * FROM t",
    "SELECT CASE WHEN (x > 0) THEN 'pos' ELSE 'neg' END AS sign FROM t",
    "SELECT * FROM t WHERE x IN (1, 2, 3) UNION ALL SELECT * FROM u",
    "SHOW FAULTS",
    "SHOW HEALTH",
    "SHOW AUDIT",
    "SHOW SERVER",
    "show metrics",
    "SHOW EVENTS WHERE (kind LIKE 'deploy.%') AND seq > 3",
    "SHOW TIMELINE 42",
    "SHOW WORKLOAD TOP 5 BY count",
    "SHOW WORKLOAD 'abc123'",
]

MUTATION_BYTES = b"'\"();,.*=<>!%+-_ abcSELECT09\x00\xff"


@pytest.mark.parametrize("seed", range(4))
def test_mutated_sql_raises_only_sql_errors(seed):
    """Seeded random byte mutations: the parser may reject, never crash."""
    rng = random.Random(seed)
    for __ in range(400):
        text = bytearray(rng.choice(SEED_CORPUS).encode("utf-8"))
        for __ in range(rng.randint(1, 6)):
            action = rng.randrange(3)
            pos = rng.randrange(len(text)) if text else 0
            if action == 0 and text:
                text[pos] = rng.choice(MUTATION_BYTES)
            elif action == 1:
                text.insert(pos, rng.choice(MUTATION_BYTES))
            elif action == 2 and text:
                del text[pos]
        sql = text.decode("utf-8", errors="ignore")
        try:
            parse(sql)
        except SqlError:
            pass  # rejection with a typed grammar error is the contract
        except Exception as exc:  # pragma: no cover - the failure case
            pytest.fail(f"parser crashed with {type(exc).__name__}: {exc!r}\n  sql={sql!r}")


def test_seed_corpus_round_trips():
    for sql in SEED_CORPUS:
        ast = parse(sql)
        assert parse(unparse(ast)) == ast, sql
        assert unparse(parse(unparse(ast))) == unparse(ast), sql
