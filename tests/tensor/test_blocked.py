import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.storage import BufferPool, Catalog, InMemoryDiskManager
from repro.tensor import (
    BlockedMatrix,
    bias_add_pipeline,
    block_array,
    block_scan_from_matrix,
    drain_to_matrix,
    elementwise_pipeline,
    matmul_pipeline,
)
from repro.tensor.linalg import transpose_pipeline


def relational_matmul(a, b):
    """``a × b`` through the join + multiply + SUM_BLOCK pipeline."""
    pipeline = matmul_pipeline(
        block_scan_from_matrix(a, "a"), block_scan_from_matrix(b, "b")
    )
    shape = (a.shape[0], b.shape[1])
    return drain_to_matrix(pipeline, shape, (a.block_shape[0], b.block_shape[1]))


def test_from_dense_round_trip_exact_blocks():
    a = np.arange(24, dtype=float).reshape(4, 6)
    blocked = BlockedMatrix.from_dense(a, (2, 3))
    assert blocked.num_block_rows == 2
    assert blocked.num_block_cols == 2
    np.testing.assert_array_equal(blocked.to_dense(), a)


def test_from_dense_ragged_edges():
    a = np.arange(35, dtype=float).reshape(5, 7)
    blocked = BlockedMatrix.from_dense(a, (2, 3))
    assert blocked.num_block_rows == 3
    assert blocked.num_block_cols == 3
    assert blocked.block_dims(2, 2) == (1, 1)
    np.testing.assert_array_equal(blocked.to_dense(), a)


def test_missing_block_reads_as_zeros():
    blocked = BlockedMatrix((4, 4), (2, 2))
    np.testing.assert_array_equal(blocked.get_block(1, 1), np.zeros((2, 2)))
    np.testing.assert_array_equal(blocked.to_dense(), np.zeros((4, 4)))


def test_set_block_shape_checked():
    blocked = BlockedMatrix((4, 4), (2, 2))
    with pytest.raises(ShapeError):
        blocked.set_block(0, 0, np.zeros((3, 3)))


def test_matmul_matches_dense(rng):
    """A block missing from a relation multiplies as zeros: it joins nothing."""
    a = rng.normal(size=(7, 11))
    b = rng.normal(size=(11, 5))
    sparse = BlockedMatrix((7, 11), (3, 4))
    for i, j in [(0, 0), (1, 2), (2, 1)]:
        sparse.set_block(i, j, BlockedMatrix.from_dense(a, (3, 4)).get_block(i, j))
    got = relational_matmul(sparse, BlockedMatrix.from_dense(b, (4, 2)))
    np.testing.assert_allclose(got.to_dense(), sparse.to_dense() @ b, atol=1e-12)


def test_matmul_incompatible_shapes_raise(rng):
    a = BlockedMatrix.from_dense(rng.normal(size=(4, 5)), (2, 2))
    b = BlockedMatrix.from_dense(rng.normal(size=(4, 5)), (3, 3))
    with pytest.raises(ShapeError, match="inner dims"):
        relational_matmul(a, b)


def test_map_blocks_relu(rng):
    a = rng.normal(size=(7, 5))
    blocks = BlockedMatrix.from_dense(a, (2, 3))
    relu = elementwise_pipeline(
        block_scan_from_matrix(blocks, ""), lambda x: np.maximum(x, 0.0), "relu"
    )
    got = drain_to_matrix(relu, (7, 5), (2, 3))
    np.testing.assert_array_equal(got.to_dense(), np.maximum(a, 0.0))
    with pytest.raises(ShapeError, match="preserve block shape"):
        drain_to_matrix(
            elementwise_pipeline(block_scan_from_matrix(blocks, ""), np.ravel, "flat"),
            (7, 5),
            (2, 3),
        )


def test_add_row_vector(rng):
    a = rng.normal(size=(5, 7))
    bias = rng.normal(size=7)
    biased = bias_add_pipeline(
        block_scan_from_matrix(BlockedMatrix.from_dense(a, (2, 3)), ""), bias, block_cols=3
    )
    got = drain_to_matrix(biased, (5, 7), (2, 3))
    np.testing.assert_allclose(got.to_dense(), a + bias, atol=1e-12)
    short = bias_add_pipeline(
        block_scan_from_matrix(BlockedMatrix.from_dense(a, (2, 3)), ""), bias[:5], 3
    )
    with pytest.raises(ShapeError, match="does not cover column block 1"):
        drain_to_matrix(short, (5, 7), (2, 3))


def test_row_softmax_matches_dense(rng):
    a = rng.normal(size=(6, 9)) * 5
    blocked = BlockedMatrix.from_dense(a, (2, 4)).row_softmax()
    shifted = np.exp(a - a.max(axis=1, keepdims=True))
    expected = shifted / shifted.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(blocked.to_dense(), expected, atol=1e-12)
    np.testing.assert_allclose(blocked.to_dense().sum(axis=1), np.ones(6))


def test_block_row_round_trip(rng):
    """A block row written to a heap page decodes to the same array."""
    pool = BufferPool(InMemoryDiskManager(8192), capacity_pages=8)
    data = rng.normal(size=(4, 5))
    blocked = BlockedMatrix((12, 15), (4, 5))
    blocked.set_block(2, 1, data)
    info = blocked.store(Catalog(pool), "blocks")
    [(__, row)] = list(info.heap.scan())
    assert row[:4] == (2, 1, 4, 5)
    assert isinstance(row[4], bytes)  # an array becomes bytes on the page
    np.testing.assert_array_equal(block_array(*row[2:]), data)


def test_row_to_block_rejects_bad_payload():
    with pytest.raises(ShapeError, match="3 elements"):
        block_array(2, 2, np.zeros(3).tobytes())
    with pytest.raises(ShapeError, match="12-byte"):
        block_array(1, 2, b"\0" * 12)


@pytest.mark.parametrize(
    "data",
    [
        np.arange(4),  # int64: its bytes would read as denormals
        np.arange(4, dtype=np.float32),
        np.zeros(4),  # the right size, the wrong shape
        np.zeros((2, 3)),
        np.zeros((2, 2)).T[:, :1],
    ],
)
def test_block_array_takes_only_float64_arrays_of_its_shape(data):
    with pytest.raises(ShapeError, match="must be float64 2×2"):
        block_array(2, 2, data)


def test_block_array_passes_a_strided_view_as_it_is():
    a = np.arange(30.0).reshape(5, 6)
    view = a[1:3, 2:5]
    assert block_array(2, 3, view) is view


def test_from_dense_blocks_are_read_only_views(rng):
    a = rng.normal(size=(7, 10))
    blocked = BlockedMatrix.from_dense(a, (3, 4))
    for i, j, nrows, ncols, block in blocked.block_rows():
        assert np.shares_memory(block, a) and not block.flags.writeable
        assert block.base is a or block.base.base is a
        np.testing.assert_array_equal(block, a[3 * i : 3 * i + nrows, 4 * j : 4 * j + ncols])
    assert a.flags.writeable  # only the views are locked
    np.testing.assert_array_equal(blocked.to_dense(), a)


def test_store_and_load_via_heap(rng):
    pool = BufferPool(InMemoryDiskManager(8192), capacity_pages=8)
    catalog = Catalog(pool)
    a = rng.normal(size=(9, 7))
    blocked = BlockedMatrix.from_dense(a, (4, 3))
    info = blocked.store(catalog, "w_blocks")
    assert info.row_count == blocked.num_blocks
    loaded = BlockedMatrix.load(info, (9, 7), (4, 3))
    np.testing.assert_array_equal(loaded.to_dense(), a)
    # The tiny pool forced spilling: blocks survived eviction.
    assert pool.stats.evictions > 0 or pool.resident_pages <= 8


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 12),
    inner=st.integers(1, 12),
    cols=st.integers(1, 12),
    br=st.integers(1, 5),
    bi=st.integers(1, 5),
    bc=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
def test_property_blocked_matmul_equals_dense(rows, inner, cols, br, bi, bc, seed):
    """Ragged blocks through matmul, bias-add, ReLU and transpose."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, inner))
    b = rng.normal(size=(inner, cols))
    bias = rng.normal(size=cols)
    product = matmul_pipeline(
        block_scan_from_matrix(BlockedMatrix.from_dense(a, (br, bi)), "a"),
        block_scan_from_matrix(BlockedMatrix.from_dense(b, (bi, bc)), "b"),
    )
    relu = elementwise_pipeline(
        bias_add_pipeline(product, bias, block_cols=bc), lambda x: np.maximum(x, 0.0), "relu"
    )
    got = drain_to_matrix(transpose_pipeline(relu), (cols, rows), (bc, br))
    assert got.shape == (cols, rows)
    np.testing.assert_allclose(got.to_dense(), np.maximum(a @ b + bias, 0.0).T, atol=1e-10)
