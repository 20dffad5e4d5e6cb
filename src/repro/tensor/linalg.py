"""Blocked linear algebra lowered to relational operator pipelines.

This module realises the paper's central rewrite (Fig. 1c / Sec. 7.1):

    ``A × B``  →  ``Aggregate(SUM_BLOCK)  ∘  multiply-UDF  ∘
                   HashJoin(A.col_blk = B.row_blk)``

The pipelines are built from the ordinary operators in
:mod:`repro.relational.operators`, so when the inputs are heap tables the
whole computation runs block-at-a-time through the buffer pool — which is
what lets it survive operators larger than memory.

The relation-centric engine hands ``matmul_pipeline`` one row stripe at a
time, and a stripe is one block row: ``A``'s blocks are ``stripe rows ×
block cols`` against square weight blocks, so the join emits one row — and
the multiply runs one GEMM — per weight block.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterator

import numpy as np

from ..errors import ShapeError
from ..relational.batch import Batch
from ..relational.expressions import ColumnRef
from ..relational.operators import (
    Aggregate,
    AggregateSpec,
    GeneratorScan,
    HashJoin,
    MapBatches,
    MapRows,
    Operator,
    Project,
    SeqScan,
)
from ..relational.schema import Schema
from ..storage.catalog import TableInfo
from .block import block_table_schema, block_to_row, row_to_block
from .blocked import BlockedMatrix

BLOCK_COLUMNS = ("row_blk", "col_blk", "nrows", "ncols", "data")


@lru_cache(maxsize=None)
def prefixed_block_schema(prefix: str) -> Schema:
    """Block-table schema with every column renamed ``<prefix>_<name>``."""
    base = block_table_schema()
    return Schema(col.renamed(f"{prefix}_{col.name}") for col in base)


def block_scan_from_matrix(
    matrix: BlockedMatrix, prefix: str, label: str = ""
) -> Operator:
    """Stream an in-memory blocked matrix as a block relation."""

    def factory() -> Iterator[tuple]:
        for block in matrix.iter_blocks():
            yield block_to_row(block)

    return GeneratorScan(prefixed_block_schema(prefix), factory, label=label or prefix)


def block_scan_from_table(table: TableInfo, prefix: str) -> Operator:
    """Scan a persisted block table, renaming columns with ``prefix``."""
    scan = SeqScan(table)
    items = [
        (ColumnRef(name), f"{prefix}_{name}") for name in BLOCK_COLUMNS
    ]
    return Project(scan, items)


def matmul_pipeline(
    a: Operator, b: Operator, a_prefix: str = "a", b_prefix: str = "b"
) -> Operator:
    """Build the join + multiply + aggregate pipeline for ``A × B``.

    ``a`` and ``b`` must produce prefixed block rows (see
    :func:`block_scan_from_matrix` / :func:`block_scan_from_table`).
    The output schema is the unprefixed block-table schema.
    """
    join = HashJoin(
        a,
        b,
        [ColumnRef(f"{a_prefix}_col_blk")],
        [ColumnRef(f"{b_prefix}_row_blk")],
    )
    schema = join.schema
    a_cols = itemgetter(*(schema.index_of(f"{a_prefix}_{c}") for c in BLOCK_COLUMNS))
    b_cols = itemgetter(*(schema.index_of(f"{b_prefix}_{c}") for c in BLOCK_COLUMNS))

    def multiply(batch: Batch) -> Batch:
        a_rb, __, a_nr, a_nc, a_data = a_cols(batch.columns)
        __, b_cb, b_nr, b_nc, b_data = b_cols(batch.columns)
        partials = []
        for nr, inner, a_bytes, b_inner, nc, b_bytes in zip(
            a_nr, a_nc, a_data, b_nr, b_nc, b_data
        ):
            if inner != b_inner:
                raise ShapeError(
                    f"joined blocks have incompatible inner dims {inner} vs {b_inner}"
                )
            left = np.frombuffer(a_bytes, dtype=np.float64).reshape(nr, inner)
            right = np.frombuffer(b_bytes, dtype=np.float64).reshape(b_inner, nc)
            # A fresh C-contiguous array: SUM_BLOCK reads (or adopts) it as is.
            partials.append(left @ right)
        return Batch(len(batch), [a_rb, b_cb, a_nr, b_nc, partials])

    # A partial is a whole stripe-row block (≤ 1024 × 128 doubles at the
    # engine's default stripe), so at most eight are alive between the
    # multiply and SUM_BLOCK: the 8 MB that 64 square partials took when
    # stripes were cut into square blocks.
    multiplied = MapBatches(
        join,
        multiply,
        block_table_schema(),
        batch_size=8,
        label="block-multiply",
    )
    return Aggregate(
        multiplied,
        group_by=[
            (ColumnRef("row_blk"), "row_blk"),
            (ColumnRef("col_blk"), "col_blk"),
            (ColumnRef("nrows"), "nrows"),
            (ColumnRef("ncols"), "ncols"),
        ],
        aggregates=[AggregateSpec("SUM_BLOCK", ColumnRef("data"), "data")],
    )


def elementwise_pipeline(
    source: Operator, fn: Callable[[np.ndarray], np.ndarray], label: str
) -> Operator:
    """Apply an element-wise function to every block (e.g. ReLU)."""

    def apply(batch: list[tuple]) -> Iterator[tuple]:
        for row in batch:
            block = row_to_block(row)
            mapped = np.ascontiguousarray(fn(block.data), dtype=np.float64)
            if mapped.shape != block.data.shape:
                raise ShapeError(f"{label} must preserve block shape")
            yield (block.row_blk, block.col_blk, mapped.shape[0], mapped.shape[1], mapped.tobytes())

    return MapRows(source, apply, block_table_schema(), batch_size=64, label=label)


def bias_add_pipeline(source: Operator, bias: np.ndarray, block_cols: int) -> Operator:
    """Broadcast-add a bias vector, sliced per column block."""
    bias = np.asarray(bias, dtype=np.float64).reshape(-1)

    def apply(batch: list[tuple]) -> Iterator[tuple]:
        for row in batch:
            block = row_to_block(row)
            start = block.col_blk * block_cols
            segment = bias[start : start + block.data.shape[1]]
            if segment.size != block.data.shape[1]:
                raise ShapeError(
                    f"bias of length {bias.size} does not cover column block "
                    f"{block.col_blk}"
                )
            data = block.data + segment
            yield (block.row_blk, block.col_blk, data.shape[0], data.shape[1], data.tobytes())

    return MapRows(source, apply, block_table_schema(), batch_size=64, label="bias-add")


def transpose_pipeline(source: Operator) -> Operator:
    """Relational block transpose: swap block coordinates, transpose data.

    ``Aᵀ`` is a pure map over the block relation — no shuffle needed —
    which is what makes the relation-centric backward pass (``Xᵀ × dY``)
    expressible with the same operators as the forward pass.
    """

    def apply(batch: list[tuple]) -> Iterator[tuple]:
        for row in batch:
            block = row_to_block(row)
            data = np.ascontiguousarray(block.data.T)
            yield (block.col_blk, block.row_blk, data.shape[0], data.shape[1], data.tobytes())

    return MapRows(source, apply, block_table_schema(), batch_size=64, label="transpose")


def elementwise_binary_pipeline(
    left: Operator,
    right: Operator,
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    label: str,
) -> Operator:
    """Join two block relations on block coordinates and combine blocks.

    Used by the training extension for gradient masking
    (``dZ = dA ⊙ 1[Z > 0]``).  Both inputs must produce *unprefixed*
    block rows covering the same block grid.
    """
    left_prefixed = _prefix_blocks(left, "l")
    right_prefixed = _prefix_blocks(right, "r")
    join = HashJoin(
        left_prefixed,
        right_prefixed,
        [ColumnRef("l_row_blk"), ColumnRef("l_col_blk")],
        [ColumnRef("r_row_blk"), ColumnRef("r_col_blk")],
    )
    schema = join.schema
    l_idx = [schema.index_of(f"l_{c}") for c in BLOCK_COLUMNS]
    r_idx = [schema.index_of(f"r_{c}") for c in BLOCK_COLUMNS]

    def apply(batch: list[tuple]) -> Iterator[tuple]:
        for row in batch:
            rb, cb, l_nr, l_nc, l_data = (row[i] for i in l_idx)
            __, __, r_nr, r_nc, r_data = (row[i] for i in r_idx)
            if (l_nr, l_nc) != (r_nr, r_nc):
                raise ShapeError(
                    f"block ({rb}, {cb}) shapes differ: "
                    f"({l_nr}, {l_nc}) vs ({r_nr}, {r_nc})"
                )
            a = np.frombuffer(l_data, dtype=np.float64).reshape(l_nr, l_nc)
            b = np.frombuffer(r_data, dtype=np.float64).reshape(r_nr, r_nc)
            out = np.ascontiguousarray(fn(a, b), dtype=np.float64)
            yield (rb, cb, out.shape[0], out.shape[1], out.tobytes())

    return MapRows(join, apply, block_table_schema(), batch_size=64, label=label)


def column_sum_pipeline(source: Operator) -> Operator:
    """Sum a block relation over its rows: one output block row per
    column block (used for bias gradients, ``db = Σ_rows dY``)."""

    def collapse(batch: list[tuple]) -> Iterator[tuple]:
        for row in batch:
            block = row_to_block(row)
            summed = block.data.sum(axis=0, keepdims=True)
            yield (0, block.col_blk, 1, summed.shape[1], summed.tobytes())

    collapsed = MapRows(
        source, collapse, block_table_schema(), batch_size=64, label="col-sum"
    )
    return Aggregate(
        collapsed,
        group_by=[
            (ColumnRef("row_blk"), "row_blk"),
            (ColumnRef("col_blk"), "col_blk"),
            (ColumnRef("nrows"), "nrows"),
            (ColumnRef("ncols"), "ncols"),
        ],
        aggregates=[AggregateSpec("SUM_BLOCK", ColumnRef("data"), "data")],
    )


def _prefix_blocks(op: Operator, prefix: str) -> Operator:
    from ..relational.operators import Project

    return Project(op, [(ColumnRef(c), f"{prefix}_{c}") for c in BLOCK_COLUMNS])


def drain_to_matrix(
    source: Operator, shape: tuple[int, int], block_shape: tuple[int, int]
) -> BlockedMatrix:
    """Execute a block pipeline and collect the result blocks."""
    out = BlockedMatrix(shape, block_shape)
    for row in source:
        block = row_to_block(row)
        out.set_block(block.row_blk, block.col_blk, block.data)
    return out


def drain_to_table(source: Operator, catalog, table_name: str) -> TableInfo:
    """Execute a block pipeline, materialising block rows into a heap table.

    This is how the relation-centric engine passes intermediates between
    layers: the blocks land on pages (spilling through the buffer pool as
    needed) instead of in one dense array.
    """
    info = catalog.create_table(table_name, block_table_schema())
    for row in source:
        info.heap.insert(row)
        info.row_count += 1
    return info
