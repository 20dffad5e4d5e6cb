import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
