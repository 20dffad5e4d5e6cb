import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError, StorageError
from repro.relational.operators import GeneratorScan, SeqScan
from repro.storage import BufferPool, Catalog, InMemoryDiskManager
from repro.tensor import (
    BlockedMatrix,
    bias_add_pipeline,
    block_scan_from_matrix,
    block_table_schema,
    block_scan_from_table,
    drain_to_matrix,
    elementwise_pipeline,
    matmul_pipeline,
    reblock,
)


def make_catalog(page_size=8192, capacity=16):
    pool = BufferPool(InMemoryDiskManager(page_size), capacity_pages=capacity)
    return Catalog(pool), pool


def test_matmul_pipeline_from_memory(rng):
    a = rng.normal(size=(10, 8))
    b = rng.normal(size=(8, 6))
    pipeline = matmul_pipeline(
        block_scan_from_matrix(BlockedMatrix.from_dense(a, (4, 3)), "a"),
        block_scan_from_matrix(BlockedMatrix.from_dense(b, (3, 4)), "b"),
    )
    result = drain_to_matrix(pipeline, (10, 6), (4, 4))
    np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-10)


def test_matmul_pipeline_from_tables(rng):
    catalog, pool = make_catalog(capacity=8)
    a = rng.normal(size=(12, 9))
    b = rng.normal(size=(9, 7))
    a_tab = BlockedMatrix.from_dense(a, (5, 4)).store(catalog, "a_blocks")
    b_tab = BlockedMatrix.from_dense(b, (4, 3)).store(catalog, "b_blocks")
    pipeline = matmul_pipeline(
        block_scan_from_table(a_tab, "a"), block_scan_from_table(b_tab, "b")
    )
    result = drain_to_matrix(pipeline, (12, 7), (5, 3))
    np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-10)


def test_pipeline_chains_layers_relu_and_bias(rng):
    a = rng.normal(size=(6, 5))
    w = rng.normal(size=(5, 4))
    bias = rng.normal(size=4)
    mm = matmul_pipeline(
        block_scan_from_matrix(BlockedMatrix.from_dense(a, (3, 2)), "a"),
        block_scan_from_matrix(BlockedMatrix.from_dense(w, (2, 2)), "b"),
    )
    biased = bias_add_pipeline(mm, bias, block_cols=2)
    activated = elementwise_pipeline(biased, lambda x: np.maximum(x, 0.0), "relu")
    result = drain_to_matrix(activated, (6, 4), (3, 2))
    np.testing.assert_allclose(
        result.to_dense(), np.maximum(a @ w + bias, 0.0), atol=1e-10
    )


def test_drain_to_table_then_reload(rng):
    """Pipeline blocks travel as arrays and are written to pages as bytes."""
    catalog, __ = make_catalog()
    a = rng.normal(size=(7, 7))
    b = rng.normal(size=(7, 7))
    bias = rng.normal(size=7)
    mm = matmul_pipeline(
        block_scan_from_matrix(BlockedMatrix.from_dense(a, (3, 3)), "a"),
        block_scan_from_matrix(BlockedMatrix.from_dense(b, (3, 3)), "b"),
    )
    biased = bias_add_pipeline(mm, bias, block_cols=3)
    info = catalog.create_table("result_blocks", block_table_schema())
    for row in biased:
        assert isinstance(row[4], np.ndarray)
        info.heap.insert(row)
        info.row_count += 1
    loaded = BlockedMatrix.load(info, (7, 7), (3, 3))
    np.testing.assert_allclose(loaded.to_dense(), a @ b + bias, atol=1e-10)


def test_large_matmul_spills_through_tiny_pool(rng):
    """A matmul whose blocks vastly exceed the pool must still be exact."""
    catalog, pool = make_catalog(page_size=4096, capacity=6)
    a = rng.normal(size=(64, 48))
    b = rng.normal(size=(48, 32))
    a_tab = BlockedMatrix.from_dense(a, (16, 16)).store(catalog, "a")
    b_tab = BlockedMatrix.from_dense(b, (16, 16)).store(catalog, "b")
    assert pool.stats.evictions > 0  # storing alone overflowed the pool
    pipeline = matmul_pipeline(
        block_scan_from_table(a_tab, "a"), block_scan_from_table(b_tab, "b")
    )
    result = drain_to_matrix(pipeline, (64, 32), (16, 16))
    np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(1, 10),
    k=st.integers(1, 10),
    n=st.integers(1, 10),
    bm=st.integers(1, 4),
    bk=st.integers(1, 4),
    bn=st.integers(1, 4),
    seed=st.integers(0, 500),
)
def test_property_relational_matmul_equals_dense(m, k, n, bm, bk, bn, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, k))
    b = rng.normal(size=(k, n))
    pipeline = matmul_pipeline(
        block_scan_from_matrix(BlockedMatrix.from_dense(a, (bm, bk)), "a"),
        block_scan_from_matrix(BlockedMatrix.from_dense(b, (bk, bn)), "b"),
    )
    result = drain_to_matrix(pipeline, (m, n), (bm, bn))
    np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-9)


# -- reblock -----------------------------------------------------------------

# A 10×7 matrix in 4×3 stored blocks (a 3×3 grid, ragged on both edges),
# re-blocked 2x into 8×6 compute blocks.
SHAPE, STORED = (10, 7), (4, 3)


def stored_rows(a, edits=()):
    """``a``'s stored block rows with ``edits`` applied: ``(i, j) → None``
    drops a block, ``(i, j) → (nrows, ncols)`` re-cuts it from ``a``, and a
    ``("dup", i, j)`` key repeats it."""
    edits = dict(edits)
    rows = []
    for i, j, nrows, ncols, data in BlockedMatrix.from_dense(a, STORED).block_rows():
        dims = edits.get((i, j), (nrows, ncols))
        if dims is None:
            continue
        nrows, ncols = dims
        block = np.ascontiguousarray(a[4 * i : 4 * i + nrows, 3 * j : 3 * j + ncols])
        if block.shape != dims:  # reaches past the matrix: pad
            block = np.zeros(dims)
        rows.append((i, j, nrows, ncols, block))
        if ("dup", i, j) in edits:
            rows.append(rows[-1])
    return rows


def generator_source(rows):
    return GeneratorScan(block_table_schema(), lambda: iter(rows))


def table_source(rows):
    """The same rows in a block table, read through ``scan_into``."""
    catalog, __ = make_catalog(page_size=512, capacity=4)
    info = catalog.create_table("doctored", block_table_schema())
    for row in rows:
        info.heap.insert(row)
    return SeqScan(info)


SOURCES = pytest.mark.parametrize("source", [generator_source, table_source])


@SOURCES
def test_reblock_assembles_compute_blocks(source, rng):
    a = rng.normal(size=SHAPE)
    rows = stored_rows(a)
    out = reblock(source(rows[::-1]), SHAPE, STORED, 2)  # scan order is free
    got = drain_to_matrix(out, SHAPE, (8, 6))
    np.testing.assert_array_equal(got.to_dense(), a)
    assert sorted(got._blocks) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@SOURCES
@pytest.mark.parametrize(
    "edits, message",
    [
        # (0, 0) twice and (0, 1) missing: the count of arrivals matches.
        ({("dup", 0, 0): 1, (0, 1): None}, r"stored block \(0, 0\) arrived twice"),
        ({(1, 1): (3, 3)}, r"stored block \(1, 1\) is 3×3; its slot is 4×3"),
        ({(2, 2): (2, 3)}, r"stored block \(2, 2\) is 2×3; its slot is 2×1"),
        ({(0, 2): (4, 2)}, r"stored block \(0, 2\) is 4×2; its slot is 4×1"),
        ({(2, 0): None}, r"missing stored 4×3 blocks, stored block \(2, 0\)"),
    ],
    ids=["duplicate", "short", "oversized-corner", "oversized-edge", "missing"],
)
def test_reblock_refuses_blocks_that_do_not_fill_their_slot(source, edits, message, rng):
    """Duplicate, short, oversized and missing blocks used to leave
    uninitialised memory in a compute block."""
    rows = stored_rows(rng.normal(size=SHAPE), edits)
    with pytest.raises(ShapeError, match=message):
        list(reblock(source(rows), SHAPE, STORED, 2).batches())


@SOURCES
def test_reblock_refuses_a_block_outside_the_grid(source, rng):
    rows = stored_rows(rng.normal(size=SHAPE))
    rows.append((3, 0, 4, 3, np.zeros((4, 3))))
    with pytest.raises(ShapeError, match=r"\(3, 0\) lies outside the 3×3 block grid"):
        list(reblock(source(rows), SHAPE, STORED, 2).batches())


def test_reblock_refuses_a_payload_shorter_than_its_dims(rng):
    """A row whose dims fit its slot but whose BLOB does not: the array
    source and the heap read both refuse it."""
    rows = stored_rows(rng.normal(size=SHAPE))
    rows[0] = (*rows[0][:4], np.zeros(11).tobytes())
    with pytest.raises(ShapeError, match="11 elements, expected 4×3"):
        list(reblock(generator_source(rows), SHAPE, STORED, 2).batches())
    with pytest.raises(StorageError, match="88-byte BLOB does not fill its 96-byte"):
        list(reblock(table_source(rows), SHAPE, STORED, 2).batches())
