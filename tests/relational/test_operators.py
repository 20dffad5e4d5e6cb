import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.engines import RelationCentricEngine
from repro.errors import ExecutionError, PlanError
from repro.models import amazon_14k_fc
from repro.relational import ColumnRef, ColumnType, Comparison, Literal, Schema
from repro.relational.operators import (
    Aggregate,
    AggregateSpec,
    Concat,
    Filter,
    GeneratorScan,
    HashJoin,
    Limit,
    MapRows,
    NestedLoopJoin,
    Operator,
    Project,
    SeqScan,
    SimilarityJoin,
    Sort,
    SortKey,
    ValuesScan,
    collect,
)
from repro.storage import BufferPool, Catalog, InMemoryDiskManager, VersionRecord

PEOPLE = Schema.of(("id", ColumnType.INT), ("age", ColumnType.INT), ("name", ColumnType.TEXT))
PEOPLE_ROWS = [
    (1, 30, "ann"),
    (2, 25, "bob"),
    (3, 30, "cat"),
    (4, None, "dee"),
]


def people_scan():
    return ValuesScan(PEOPLE, PEOPLE_ROWS)


def test_values_scan_is_restartable():
    scan = people_scan()
    assert list(scan) == PEOPLE_ROWS
    assert list(scan) == PEOPLE_ROWS


def test_seq_scan_reads_heap():
    pool = BufferPool(InMemoryDiskManager(4096), capacity_pages=16)
    catalog = Catalog(pool)
    info = catalog.create_table("people", PEOPLE)
    for row in PEOPLE_ROWS:
        info.heap.insert(row)
    assert list(SeqScan(info)) == PEOPLE_ROWS


def test_seq_scan_alias_qualifies_schema():
    pool = BufferPool(InMemoryDiskManager(4096), capacity_pages=16)
    catalog = Catalog(pool)
    info = catalog.create_table("people", PEOPLE)
    scan = SeqScan(info, alias="p")
    assert scan.schema.names == ("p.id", "p.age", "p.name")


def test_filter_drops_null_predicate_rows():
    out = collect(Filter(people_scan(), Comparison(">", ColumnRef("age"), Literal(26))))
    assert [r[0] for r in out] == [1, 3]  # the NULL-age row is dropped


def test_project_computes_and_renames():
    op = Project(
        people_scan(),
        [(ColumnRef("name"), "who"), (ColumnRef("age") + Literal(1), "age1")],
    )
    out = collect(op)
    assert out.schema.names == ("who", "age1")
    assert out.rows[0] == ("ann", 31)
    assert out.rows[3] == ("dee", None)


def test_hash_join_inner():
    orders = ValuesScan(
        Schema.of(("person_id", ColumnType.INT), ("amount", ColumnType.DOUBLE)),
        [(1, 10.0), (1, 20.0), (3, 5.0), (99, 1.0)],
    )
    join = HashJoin(people_scan(), orders, [ColumnRef("id")], [ColumnRef("person_id")])
    out = collect(join)
    assert len(out) == 3
    amounts = sorted(row[-1] for row in out)
    assert amounts == [5.0, 10.0, 20.0]


def test_hash_join_left_preserves_unmatched():
    orders = ValuesScan(
        Schema.of(("person_id", ColumnType.INT), ("amount", ColumnType.DOUBLE)),
        [(1, 10.0)],
    )
    join = HashJoin(
        people_scan(), orders, [ColumnRef("id")], [ColumnRef("person_id")],
        join_type="left",
    )
    out = collect(join)
    assert len(out) == 4
    unmatched = [r for r in out if r[3] is None]
    assert len(unmatched) == 3


def test_hash_join_null_keys_never_match():
    left = ValuesScan(Schema.of(("k", ColumnType.INT)), [(None,), (1,)])
    right = ValuesScan(Schema.of(("k2", ColumnType.INT)), [(None,), (1,)])
    out = collect(HashJoin(left, right, [ColumnRef("k")], [ColumnRef("k2")]))
    assert out.rows == [(1, 1)]


def test_hash_join_spills_when_build_side_exceeds_limit():
    n = 5000
    left = ValuesScan(Schema.of(("k", ColumnType.INT)), [(i,) for i in range(n)])
    right = ValuesScan(Schema.of(("k2", ColumnType.INT)), [(i,) for i in range(0, n, 2)])
    join = HashJoin(
        left, right, [ColumnRef("k")], [ColumnRef("k2")], max_build_rows=100
    )
    out = collect(join)
    assert len(out) == n // 2
    assert sorted(r[0] for r in out) == list(range(0, n, 2))


def test_nested_loop_join_arbitrary_predicate():
    left = ValuesScan(Schema.of(("x", ColumnType.INT)), [(1,), (5,)])
    right = ValuesScan(Schema.of(("y", ColumnType.INT)), [(2,), (7,)])
    join = NestedLoopJoin(left, right, Comparison("<", ColumnRef("x"), ColumnRef("y")))
    assert sorted(collect(join).rows) == [(1, 2), (1, 7), (5, 7)]


def test_similarity_join_band():
    left = ValuesScan(Schema.of(("a", ColumnType.DOUBLE)), [(1.0,), (5.0,), (9.0,)])
    right = ValuesScan(Schema.of(("b", ColumnType.DOUBLE)), [(1.2,), (4.0,), (20.0,)])
    join = SimilarityJoin(left, right, ColumnRef("a"), ColumnRef("b"), epsilon=1.0)
    assert sorted(collect(join).rows) == [(1.0, 1.2), (5.0, 4.0)]


def test_similarity_join_matches_nested_loop_reference():
    rng = np.random.default_rng(0)
    lvals = [(float(v),) for v in rng.normal(size=60)]
    rvals = [(float(v),) for v in rng.normal(size=60)]
    ls = Schema.of(("a", ColumnType.DOUBLE))
    rs = Schema.of(("b", ColumnType.DOUBLE))
    eps = 0.1
    fast = sorted(
        collect(
            SimilarityJoin(ValuesScan(ls, lvals), ValuesScan(rs, rvals), ColumnRef("a"), ColumnRef("b"), eps)
        ).rows
    )
    slow = sorted(
        (l + r) for l in lvals for r in rvals if abs(l[0] - r[0]) <= eps
    )
    assert fast == slow


def test_aggregate_group_by():
    agg = Aggregate(
        people_scan(),
        group_by=[(ColumnRef("age"), "age")],
        aggregates=[AggregateSpec("COUNT_STAR", None, "n")],
    )
    out = dict(collect(agg).rows)
    assert out == {30: 2, 25: 1, None: 1}


def test_aggregate_global_over_empty_input():
    empty = ValuesScan(PEOPLE, [])
    agg = Aggregate(
        empty,
        group_by=[],
        aggregates=[
            AggregateSpec("COUNT_STAR", None, "n"),
            AggregateSpec("SUM", ColumnRef("age"), "total"),
        ],
    )
    assert collect(agg).rows == [(0, None)]


def test_aggregate_functions():
    agg = Aggregate(
        people_scan(),
        group_by=[],
        aggregates=[
            AggregateSpec("SUM", ColumnRef("age"), "s"),
            AggregateSpec("AVG", ColumnRef("age"), "a"),
            AggregateSpec("MIN", ColumnRef("age"), "lo"),
            AggregateSpec("MAX", ColumnRef("age"), "hi"),
            AggregateSpec("COUNT", ColumnRef("age"), "n"),
        ],
    )
    row = collect(agg).rows[0]
    assert row == (85, 85 / 3, 25, 30, 3)


def test_sum_block_aggregates_arrays():
    blocks = [
        (0, np.ones(4).tobytes()),
        (0, (2 * np.ones(4)).tobytes()),
        (1, (5 * np.ones(4)).tobytes()),
    ]
    scan = ValuesScan(
        Schema.of(("g", ColumnType.INT), ("blk", ColumnType.BLOB)), blocks
    )
    agg = Aggregate(
        scan,
        group_by=[(ColumnRef("g"), "g")],
        aggregates=[AggregateSpec("SUM_BLOCK", ColumnRef("blk"), "total")],
    )
    out = {g: np.frombuffer(b) for g, b in collect(agg).rows}
    np.testing.assert_allclose(out[0], 3 * np.ones(4))
    np.testing.assert_allclose(out[1], 5 * np.ones(4))


def test_sort_multi_key_and_nulls_last():
    op = Sort(
        people_scan(),
        [SortKey(ColumnRef("age")), SortKey(ColumnRef("name"), descending=True)],
    )
    names = [r[2] for r in collect(op)]
    assert names == ["bob", "cat", "ann", "dee"]


def test_limit_offset():
    op = Limit(people_scan(), limit=2, offset=1)
    assert [r[0] for r in collect(op)] == [2, 3]
    with pytest.raises(PlanError):
        Limit(people_scan(), limit=-1)


def test_map_rows_batches():
    seen_batches = []

    def udf(batch):
        seen_batches.append(len(batch))
        return [(row[0] * 10,) for row in batch]

    op = MapRows(
        people_scan(), udf, Schema.of(("x10", ColumnType.INT)), batch_size=3
    )
    assert [r[0] for r in collect(op)] == [10, 20, 30, 40]
    assert seen_batches == [3, 1]


def test_generator_scan_restartable():
    schema = Schema.of(("i", ColumnType.INT))
    scan = GeneratorScan(schema, lambda: iter([(i,) for i in range(3)]))
    assert list(scan) == [(0,), (1,), (2,)]
    assert list(scan) == [(0,), (1,), (2,)]


def test_explain_renders_tree():
    op = Limit(Filter(people_scan(), Comparison(">", ColumnRef("age"), Literal(0))), 1)
    text = op.explain()
    assert "Limit" in text and "Filter" in text and "ValuesScan" in text


# -- oracles: rows() == flattened batches() == a pure-Python reference -------


def flatten(op):
    return [row for batch in op.batches() for row in batch.rows()]


def source(schema, rows, on_heap):
    """``rows`` as a ValuesScan (row batches) or a heap scan (columnar
    numpy batches for NULL-free fixed-width pages)."""
    if not on_heap:
        return ValuesScan(schema, rows)
    catalog = Catalog(BufferPool(InMemoryDiskManager(4096), capacity_pages=64))
    info = catalog.create_table("t", schema)
    for row in rows:
        info.heap.insert(row)
    return SeqScan(info)


def join_reference(left, right, nkeys, join_type, right_width):
    def key(row):
        return None if None in row[:nkeys] else row[:nkeys]

    out, matched = [], set()
    for r in right:
        for i, l in enumerate(left):
            if key(r) is not None and key(l) == key(r):
                matched.add(i)
                out.append(l + r)
    if join_type == "left":
        out += [l + (None,) * right_width for i, l in enumerate(left) if i not in matched]
    return out


KEY = st.one_of(st.none(), st.integers(0, 6))


@settings(max_examples=60, deadline=None)
@given(
    left=st.lists(st.tuples(KEY, KEY, st.integers(-9, 9)), max_size=30),
    right=st.lists(st.tuples(KEY, KEY, st.integers(-9, 9)), max_size=30),
    nkeys=st.sampled_from([1, 2]),
    join_type=st.sampled_from(["inner", "left"]),
    spill=st.booleans(),
    on_heap=st.tuples(st.booleans(), st.booleans()),
)
def test_property_hash_join_matches_reference(left, right, nkeys, join_type, spill, on_heap):
    """Inner/left joins on one or two keys, with NULL and duplicate keys,
    in memory and through the Grace spill path, over row and numpy inputs."""
    ls = Schema.of(("a", ColumnType.INT), ("b", ColumnType.INT), ("x", ColumnType.INT))
    rs = Schema.of(("c", ColumnType.INT), ("d", ColumnType.INT), ("y", ColumnType.INT))
    join = HashJoin(
        source(ls, left, on_heap[0]),
        source(rs, right, on_heap[1]),
        [ColumnRef("a"), ColumnRef("b")][:nkeys],
        [ColumnRef("c"), ColumnRef("d")][:nkeys],
        join_type=join_type,
        max_build_rows=4 if spill else None,
    )
    rows = list(join)
    assert rows == flatten(join)
    expected = join_reference(left, right, nkeys, join_type, len(rs))
    if spill and len(left) > 4:  # partitions reorder the output
        rows, expected = sorted(rows, key=repr), sorted(expected, key=repr)
    assert rows == expected


def aggregate_reference(rows, nkeys, funcs):
    """Row-at-a-time fold; groups in first-appearance order."""
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault(row[:nkeys] if nkeys else (), []).append(row)
    if not groups and not nkeys:
        groups[()] = []
    out = []
    for key, members in groups.items():
        results = []
        for func, col in funcs:
            if func == "COUNT_STAR":
                results.append(len(members))
                continue
            values = [r[col] for r in members if r[col] is not None]
            if func == "COUNT":
                results.append(len(values))
            elif func == "AVG":
                total = 0.0
                for v in values:
                    total += v
                results.append(total / len(values) if values else None)
            elif func == "SUM_BLOCK":
                total = None
                for v in values:
                    block = np.frombuffer(v)
                    total = block.copy() if total is None else total + block
                results.append(None if total is None else total.tobytes())
            elif not values:
                results.append(None)
            else:
                total = values[0]
                for v in values[1:]:
                    total = {"SUM": lambda a, b: a + b, "MIN": min, "MAX": max}[func](total, v)
                results.append(total)
        out.append(key + tuple(results))
    return out


NUMERIC_FUNCS = [("SUM", 2), ("COUNT", 2), ("COUNT_STAR", None), ("AVG", 3),
                 ("MIN", 3), ("MAX", 2), ("MAX", 3), ("SUM", 3)]
FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 3), st.integers(0, 2), st.integers(-50, 50),
            st.one_of(FINITE, st.just(float("nan"))),
        ),
        max_size=300,
    ),
    nkeys=st.sampled_from([0, 1, 2]),
    nulls=st.sets(st.integers(0, 299), max_size=20),
    on_heap=st.booleans(),
)
def test_property_aggregate_numeric_matches_reference(rows, nkeys, nulls, on_heap):
    """SUM/COUNT/COUNT(*)/AVG/MIN/MAX over numeric keys and values, NULL
    and NaN inputs included, over row batches and numpy heap pages.  The
    comparison is by repr, so NaN and ``-0.0`` must come out as the row
    fold gives them."""
    rows = [(g, h, None if i in nulls else x, y) for i, (g, h, x, y) in enumerate(rows)]
    schema = Schema.of(
        ("g", ColumnType.INT), ("h", ColumnType.INT),
        ("x", ColumnType.INT), ("y", ColumnType.DOUBLE),
    )
    agg = Aggregate(
        source(schema, rows, on_heap),
        group_by=[(ColumnRef(n), n) for n in ("g", "h")[:nkeys]],
        aggregates=[AggregateSpec(f, None if c is None else ColumnRef("ghxy"[c]), f"a{i}")
                    for i, (f, c) in enumerate(NUMERIC_FUNCS)],
    )
    got = repr(list(agg))
    assert got == repr(flatten(agg))
    assert got == repr(aggregate_reference(rows, nkeys, NUMERIC_FUNCS))


BLOCK_FUNCS = [("SUM_BLOCK", 2), ("MIN", 1), ("MAX", 1), ("COUNT", 2)]


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.none(), st.sampled_from(["p", "q", "r"])),
            st.one_of(st.none(), st.text("abc", max_size=3)),
            st.one_of(st.none(), st.lists(FINITE, min_size=3, max_size=3)),
        ),
        max_size=40,
    ),
    nkeys=st.sampled_from([0, 1]),
)
def test_property_aggregate_text_and_blocks_match_reference(rows, nkeys):
    """SUM_BLOCK, and MIN/MAX over TEXT, with NULL group keys and inputs."""
    rows = [(g, s, None if v is None else np.array(v).tobytes()) for g, s, v in rows]
    schema = Schema.of(("g", ColumnType.TEXT), ("s", ColumnType.TEXT), ("v", ColumnType.BLOB))
    agg = Aggregate(
        ValuesScan(schema, rows),
        group_by=[(ColumnRef("g"), "g")][:nkeys],
        aggregates=[AggregateSpec(f, ColumnRef("gsv"[c]), f"a{i}")
                    for i, (f, c) in enumerate(BLOCK_FUNCS)],
    )
    got = list(agg)
    assert got == flatten(agg)
    assert got == aggregate_reference(rows, nkeys, BLOCK_FUNCS)


class Counting(Operator):
    """Passes its child's batches through, counting how many were pulled."""

    def __init__(self, child):
        self._child, self._schema, self.pulled = child, child.schema, 0

    def batches(self):
        for batch in self._child.batches():
            self.pulled += 1
            yield batch


NUMERIC_ROWS = st.lists(st.tuples(st.one_of(st.none(), st.integers(-9, 9)), FINITE), max_size=300)
KV = Schema.of(("k", ColumnType.INT), ("v", ColumnType.DOUBLE))


@settings(max_examples=60, deadline=None)
@given(rows=NUMERIC_ROWS, limit=st.integers(0, 320), offset=st.integers(0, 320),
       on_heap=st.booleans())
def test_property_limit_slices_batches(rows, limit, offset, on_heap):
    """LIMIT/OFFSET edges inside and between row and numpy batches."""
    op = Limit(source(KV, rows, on_heap), limit, offset)
    assert list(op) == rows[offset : offset + limit]
    assert flatten(op) == rows[offset : offset + limit]


@pytest.mark.parametrize(
    "limit, offset, pulled",
    [(0, 5, 0), (1, 0, 1), (64, 0, 1), (65, 0, 2), (10, 60, 2), (1, 199, 4), (500, 0, 4)],
)
def test_limit_pulls_no_batch_past_the_limit(limit, offset, pulled):
    """200 rows arrive as batches of 64, 64, 64 and 8."""
    child = Counting(ValuesScan(KV, [(i, float(i)) for i in range(200)]))
    kept = [r[0] for r in flatten(Limit(child, limit, offset))]
    assert kept == list(range(offset, min(200, offset + limit)))
    assert child.pulled == pulled


@settings(max_examples=40, deadline=None)
@given(parts=st.lists(st.tuples(NUMERIC_ROWS, st.booleans()), min_size=1, max_size=3))
def test_property_concat_chains_its_inputs(parts):
    """UNION ALL over row and numpy inputs, empty inputs included."""
    op = Concat([source(KV, rows, on_heap) for rows, on_heap in parts])
    expected = [row for rows, __ in parts for row in rows]
    assert list(op) == expected
    assert flatten(op) == expected


def test_aggregate_over_empty_input_with_group_keys_is_empty():
    agg = Aggregate(
        ValuesScan(PEOPLE, []),
        group_by=[(ColumnRef("age"), "age")],
        aggregates=[AggregateSpec("COUNT_STAR", None, "n")],
    )
    assert list(agg) == [] and flatten(agg) == []


@pytest.mark.parametrize(
    "payloads, problem",
    [
        ([np.ones(4).tobytes(), np.ones(1).tobytes()], "4 and 1 doubles"),
        ([np.ones(1).tobytes(), np.ones(4).tobytes()], "1 and 4 doubles"),
        ([np.ones(4).tobytes(), b"\x00" * 12], "12-byte payload"),
    ],
)
def test_sum_block_rejects_mismatched_payloads(payloads, problem):
    """Payloads of different lengths never broadcast; a ragged one never
    escapes as a numpy error.  The error names the group."""
    scan = ValuesScan(
        Schema.of(("g", ColumnType.INT), ("blk", ColumnType.BLOB)),
        [(0, np.zeros(2).tobytes())] + [(7, p) for p in payloads],
    )
    agg = Aggregate(
        scan,
        group_by=[(ColumnRef("g"), "g")],
        aggregates=[AggregateSpec("SUM_BLOCK", ColumnRef("blk"), "total")],
    )
    with pytest.raises(ExecutionError, match=rf"{problem}.*group \(7,\)"):
        list(agg)


@pytest.mark.parametrize("batch", [1, 127, 128, 1000, 1025])
def test_relation_centric_engine_matches_numpy_forward(batch):
    """One block row per stripe, ragged stripes and ragged blocks included
    (299 features, 1024-row stripes)."""
    config = SystemConfig(tensor_block_rows=128, tensor_block_cols=128)
    catalog = Catalog(BufferPool(InMemoryDiskManager(config.page_size), capacity_pages=64))
    model = amazon_14k_fc(scale=0.0005)
    x = np.random.default_rng(batch).normal(size=(batch, model.input_shape[0]))
    engine = RelationCentricEngine(catalog, config)
    result = engine.run_vector_stage(model.layers, x, VersionRecord("m", model))
    np.testing.assert_allclose(result.outputs, model.forward(x), rtol=1e-6)
