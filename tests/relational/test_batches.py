"""The ``batches()`` protocol: same rows as ``rows()``, counted once by
EXPLAIN ANALYZE whichever of the two a parent pulls."""

import numpy as np

from repro.relational import Batch, ColumnRef, ColumnType, Comparison, Literal, Schema
from repro.relational.batch import rechunk
from repro.relational.expressions import BinaryOp, IsNull
from repro.relational.operators import (
    Filter,
    Limit,
    MapBatches,
    Project,
    SeqScan,
    ValuesScan,
)
from repro.relational.operators.instrument import instrument
from repro.storage import BufferPool, Catalog, InMemoryDiskManager

SCHEMA = Schema.of(("id", ColumnType.INT), ("x", ColumnType.DOUBLE), ("ok", ColumnType.BOOL))


def table(n=1000, nulls=()):
    catalog = Catalog(BufferPool(InMemoryDiskManager(4096), capacity_pages=16))
    info = catalog.create_table("t", SCHEMA)
    for i in range(n):
        info.heap.insert((i, None if i in nulls else i / 4, i % 3 == 0))
    return info


def plan(info):
    kept = Filter(SeqScan(info), Comparison(">", ColumnRef("x"), Literal(10.0)))
    doubled = BinaryOp("*", ColumnRef("x"), Literal(2.0))
    return Project(kept, [(ColumnRef("id"), "id"), (doubled, "x2")])


def flatten(batches):
    return [row for batch in batches for row in batch.rows()]


def test_batches_and_rows_agree_through_filter_and_project():
    info = table(nulls={50, 51, 700})
    op = plan(info)
    expected = [(i, i / 2) for i in range(41, 1000) if i not in (50, 51, 700)]
    assert list(op) == expected
    assert flatten(op.batches()) == expected
    assert all(len(b) > 0 for b in op.batches())
    nulls = Filter(SeqScan(info), IsNull(ColumnRef("x")))
    assert [r[0] for r in nulls] == [50, 51, 700]


def test_project_passes_scan_columns_through():
    op = Project(SeqScan(table()), [(ColumnRef("x"), "x"), (ColumnRef("ok"), "ok")])
    batch = next(op.batches())
    assert isinstance(batch.column(0), np.ndarray) and batch.column(0).dtype == np.float64
    assert [type(v) for v in batch.rows()[0]] == [float, bool]


def test_default_adapter_batches_a_row_operator():
    scan = ValuesScan(Schema.of(("i", ColumnType.INT)), [(i,) for i in range(150)])
    sizes = [len(b) for b in Limit(scan, 130).batches()]
    assert sum(sizes) == 130 and all(sizes)


def test_rechunk_cuts_exact_batches_in_order():
    cuts = ((0, 3), (3, 5), (8, 1), (9, 4))
    parts = [Batch(n, [np.arange(start, start + n)]) for start, n in cuts]
    cut = list(rechunk(parts, 4))
    assert [len(b) for b in cut] == [4, 4, 4, 1]
    assert [r[0] for r in flatten(cut)] == list(range(13))


def test_map_batches_sees_exact_batch_sizes():
    seen = []

    def udf(batch):
        seen.append(len(batch))
        return Batch(len(batch), [np.asarray(batch.column(0)) * 10])

    op = MapBatches(SeqScan(table(700)), udf, Schema.of(("id10", ColumnType.INT)), batch_size=256)
    assert [r[0] for r in op] == [i * 10 for i in range(700)]
    assert seen == [256, 256, 188]


def test_instrument_counts_once_whichever_method_is_pulled():
    info = table()
    op = plan(info)
    filtered, scan = op.children()[0], op.children()[0].children()[0]
    for pull in (lambda: list(op), lambda: flatten(op.batches())):
        report = instrument(op)
        assert len(pull()) == 959
        assert report.for_node(op).rows == 959
        assert report.for_node(filtered).rows == 959
        assert report.for_node(scan).rows == 1000
        assert report.for_node(op).opened == 1
