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
side`` against square ``side × side`` weight blocks, so the join emits one
row — and the multiply runs one GEMM — per weight block.  Weight tables
store small square blocks; :func:`reblock` assembles them into the
engine's compute blocks as they stream out of the scan, copying each
weight byte once: from the buffer pool's frame into its compute block,
which then stays resident in the pool until the table is written or the
pool needs the room.  The stripe's blocks are read-only views of the
input, not copies.

Every other block stage (bias-add, element-wise maps, transpose, the
element-wise combine of two relations, column sums) is one ``MapBatches``
over :func:`_map_blocks`.  Blocks travel between operators as float64
arrays; a block becomes ``bytes`` only on a heap page or out of
``SUM_BLOCK``.
"""

from __future__ import annotations

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
    Operator,
    Project,
    SeqScan,
)
from ..storage.catalog import TableInfo
from .block import block_array, block_table_schema
from .blocked import BlockedMatrix

BLOCK_COLUMNS = ("row_blk", "col_blk", "nrows", "ncols", "data")


def prefix_blocks(source: Operator, prefix: str) -> Operator:
    """Rename a block relation's columns to ``<prefix>_<name>`` (the form a
    join input takes); an empty prefix keeps the plain names."""
    if not prefix:
        return source
    return Project(source, [(ColumnRef(c), f"{prefix}_{c}") for c in BLOCK_COLUMNS])


def block_scan_from_matrix(
    matrix: BlockedMatrix, prefix: str, label: str = ""
) -> Operator:
    """Stream an in-memory blocked matrix as a block relation."""
    scan = GeneratorScan(block_table_schema(), matrix.block_rows, label=label or prefix)
    return prefix_blocks(scan, prefix)


class BoundBlockScan(GeneratorScan):
    """A block relation read from whichever blocked matrix is bound to it:
    the input of a pipeline that is built once and run on many inputs."""

    def __init__(self, label: str):
        super().__init__(block_table_schema(), self._block_rows, label=label)
        self._matrix: BlockedMatrix | None = None

    def bind(self, matrix: BlockedMatrix | None) -> None:
        self._matrix = matrix

    def _block_rows(self) -> Iterator[tuple]:
        if self._matrix is None:
            raise ShapeError(f"no blocked matrix is bound to {self.describe()}")
        return self._matrix.block_rows()


def block_scan_from_table(table: TableInfo, prefix: str) -> Operator:
    """Scan a persisted block table, renaming columns with ``prefix``."""
    return prefix_blocks(SeqScan(table), prefix)


class _Reblock(Operator):
    """Coarsen a block relation's grid by an integer factor (see
    :func:`reblock`)."""

    def __init__(
        self,
        child: Operator,
        shape: tuple[int, int],
        block_shape: tuple[int, int],
        factor: int,
    ):
        self._child = child
        self._schema = child.schema
        self._shape = shape
        self._block_shape = block_shape
        self._factor = factor
        self._get = itemgetter(*(child.schema.index_of(c) for c in BLOCK_COLUMNS))
        # A block table's compute blocks can stay resident in its pool.
        self._heap = (
            child.table.heap
            if isinstance(child, SeqScan) and child.table.schema == block_table_schema()
            else None
        )
        side_r, side_c = (n * factor for n in block_shape)
        self._grid = [
            (i, j) for i in range(-(-shape[0] // side_r)) for j in range(-(-shape[1] // side_c))
        ]

    def batches(self) -> Iterator[Batch]:
        heap = self._heap
        if heap is None:
            for (i, j), block in self._assemble(None):
                yield _block_batch([i], [j], [block])
            return
        pool = heap.pool
        owner = (heap.first_page_id, heap.generation, self._shape, self._block_shape, self._factor)
        held = pool.get_blocks([(*owner, i, j) for i, j in self._grid])
        if held is not None:
            try:
                yield _block_batch(*zip(*self._grid), [entry.array for entry in held])
            finally:
                pool.unpin_blocks(held)
            return
        pages: list = []
        offer = True
        try:
            for (i, j), block in self._assemble(pages):
                entry = pool.put_block((*owner, i, j), block) if offer else None
                if entry is not None:
                    pool.release_pages(pages)  # their bytes are in this block or a pending one
                    pages.clear()
                elif offer:
                    # Served only whole, a table the pool cannot hold
                    # whole would just take frames: hold none of it.
                    offer = False
                    pool.drop_blocks(owner[0])
                try:
                    yield _block_batch([i], [j], [block])
                finally:
                    if entry is not None:
                        pool.unpin_blocks((entry,))
        except BaseException:
            # Only a scan that read the whole table leaves its blocks: a
            # table that fails a check fails it on every call.
            pool.drop_blocks(owner[0])
            raise

    def _stored_blocks(
        self, place: Callable[[tuple], np.ndarray], pages: list | None
    ) -> Iterator[tuple]:
        """Each stored block's ``(row_blk, col_blk, nrows, ncols)``, once
        its data is in ``place(those values)``.  A block table's chain
        chunks are copied there straight from their frames (each page read
        is appended to ``pages``); any other source's arrays (or ``bytes``)
        are copied there from its rows."""
        if self._heap is not None:
            yield from self._child.scan_into(place, pages)  # type: ignore[attr-defined]
            return
        for batch in self._child.batches():
            for *head, data in zip(*self._get(batch.columns)):
                place(head)[...] = block_array(head[2], head[3], data)
                yield head

    def _assemble(self, pages: list | None) -> Iterator[tuple[tuple[int, int], np.ndarray]]:
        """Every compute block, ``((row_blk, col_blk), array)``, as soon as
        all its stored blocks have arrived."""
        f = self._factor
        rows, cols = self._shape
        br, bc = self._block_shape
        side_r, side_c = br * f, bc * f
        stored_r, stored_c = -(-rows // br), -(-cols // bc)
        # (row_blk, col_blk) of a compute block → (its array, the stored
        # blocks it holds, how many it needs).  Row-major input keeps one
        # super-row here.
        pending: dict[tuple[int, int], tuple[np.ndarray, set, int]] = {}
        done: set[tuple[int, int]] = set()

        def place(head: tuple) -> np.ndarray:
            """Where stored block ``head`` goes: its sub-view of its compute
            block, once its coordinates and dims check out."""
            rb, cb, nr, nc = map(int, head)
            if not (0 <= rb < stored_r and 0 <= cb < stored_c):
                raise ShapeError(
                    f"stored block ({rb}, {cb}) lies outside the {stored_r}×{stored_c} "
                    f"block grid of a {rows}×{cols} matrix"
                )
            slot = (min(br, rows - rb * br), min(bc, cols - cb * bc))
            if (nr, nc) != slot:
                raise ShapeError(
                    f"stored block ({rb}, {cb}) is {nr}×{nc}; its slot is {slot[0]}×{slot[1]}"
                )
            key = (rb // f, cb // f)
            if key in done:
                raise ShapeError(f"stored block ({rb}, {cb}) arrived twice")
            entry = pending.get(key)
            if entry is None:
                i, j = key
                block = np.empty(
                    (min(side_r, rows - i * side_r), min(side_c, cols - j * side_c))
                )
                parts = min(f, stored_r - i * f) * min(f, stored_c - j * f)
                entry = pending[key] = (block, set(), parts)
            block, arrived, __ = entry
            if (rb, cb) in arrived:
                raise ShapeError(f"stored block ({rb}, {cb}) arrived twice")
            arrived.add((rb, cb))
            r0, c0 = rb % f * br, cb % f * bc
            return block[r0 : r0 + nr, c0 : c0 + nc]

        for rb, cb, *__ in self._stored_blocks(place, pages):
            key = (int(rb) // f, int(cb) // f)
            block, arrived, parts = pending[key]
            if len(arrived) == parts:
                del pending[key]
                done.add(key)
                yield key, block
        if len(done) < len(self._grid):
            # A compute block none of whose stored blocks arrived is missing
            # too: a multiply must never read an absent block as zeros.
            (i, j), arrived = next(
                ((key, pending[key][1] if key in pending else set())
                 for key in self._grid if key not in done)
            )
            missing = next(
                (rb, cb)
                for rb in range(i * f, min((i + 1) * f, stored_r))
                for cb in range(j * f, min((j + 1) * f, stored_c))
                if (rb, cb) not in arrived
            )
            raise ShapeError(
                f"{len(self._grid) - len(done)} compute block(s) of a {rows}×{cols} "
                f"matrix are missing stored {br}×{bc} blocks, stored block "
                f"{missing} among them"
            )

    def describe(self) -> str:
        side_r, side_c = (n * self._factor for n in self._block_shape)
        return f"Reblock({self._factor}x, {side_r}x{side_c})"

    def children(self) -> tuple[Operator, ...]:
        return (self._child,)


def _block_batch(row_blks, col_blks, blocks: list[np.ndarray]) -> Batch:
    return Batch(
        len(blocks),
        [list(row_blks), list(col_blks), [b.shape[0] for b in blocks], [b.shape[1] for b in blocks], blocks],
    )


def reblock(
    source: Operator,
    shape: tuple[int, int],
    block_shape: tuple[int, int],
    factor: int,
) -> Operator:
    """Assemble the ``block_shape`` blocks of a ``shape`` matrix into blocks
    ``factor`` times larger on each side (``factor == 1`` keeps the grid
    and turns each stored block into an array once).

    Each stored block is copied once, into its sub-view of its compute
    block; from a block table's ``SeqScan`` that copy is the page read
    itself (:meth:`~repro.storage.heap.HeapFile.scan_into`).  A compute
    block is emitted only once all its stored blocks have arrived, so the
    result does not depend on scan order; in row-major order at most one
    super-row (``factor`` block rows) is pending.  A stored block outside
    the grid, of the wrong dims for its slot, or arriving twice raises
    :class:`ShapeError`.  ``source`` yields unprefixed block rows.

    Over a block table the compute blocks stay resident in the table's
    buffer pool (:meth:`~repro.storage.buffer_pool.BufferPool.put_block`),
    keyed by the table's heap, its write generation, the grid and the
    block coordinates: a run that finds every block resident yields them
    all at once without reading a page, and any other run scans the table
    and offers each block it assembles to the pool, which then releases
    the clean pages the scan read.  A write to the table retires its blocks.
    """
    return _Reblock(source, shape, block_shape, factor)


def matmul_pipeline(
    a: Operator,
    b: Operator,
    a_prefix: str = "a",
    b_prefix: str = "b",
    batch_size: int = 8,
) -> Operator:
    """Build the join + multiply + aggregate pipeline for ``A × B``.

    ``a`` and ``b`` must produce prefixed block rows (see
    :func:`block_scan_from_matrix` / :func:`block_scan_from_table`).
    The output schema is the unprefixed block-table schema.  The multiply
    sees ``batch_size`` block pairs at a time, so at most that many
    partial products are alive before ``SUM_BLOCK`` folds them.
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
        for nr, inner, a_block, b_inner, nc, b_block in zip(
            a_nr, a_nc, a_data, b_nr, b_nc, b_data
        ):
            if inner != b_inner:
                raise ShapeError(
                    f"joined blocks have incompatible inner dims {inner} vs {b_inner}"
                )
            left = block_array(nr, inner, a_block)
            right = block_array(b_inner, nc, b_block)
            # A fresh C-contiguous array: SUM_BLOCK reads (or adopts) it as is.
            partials.append(left @ right)
        return Batch(len(batch), [a_rb, b_cb, a_nr, b_nc, partials])

    multiplied = MapBatches(
        join,
        multiply,
        block_table_schema(),
        batch_size=batch_size,
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


def _map_blocks(
    source: Operator,
    fn: Callable[..., tuple[int, int, np.ndarray]],
    label: str,
    prefixes: tuple[str, ...] = ("",),
) -> Operator:
    """Map every row of ``source`` to one block.

    Each prefix names one block in a row: ``fn(row_blk, col_blk, *blocks)``
    gets the first block's coordinates and every block as a float64 array,
    and returns the output block's coordinates and array.
    """
    schema = source.schema
    getters = [
        itemgetter(*(schema.index_of(f"{p}_{c}" if p else c) for c in BLOCK_COLUMNS))
        for p in prefixes
    ]

    def apply(batch: Batch) -> Batch:
        inputs = [getter(batch.columns) for getter in getters]
        row_blks, col_blks = inputs[0][:2]
        blocks = [map(block_array, *columns[2:]) for columns in inputs]
        out_rb, out_cb, out_data = [], [], []
        for rb, cb, *arrays in zip(row_blks, col_blks, *blocks):
            rb, cb, out = fn(rb, cb, *arrays)
            out_rb.append(rb)
            out_cb.append(cb)
            out_data.append(np.ascontiguousarray(out, dtype=np.float64))
        nrows = [d.shape[0] for d in out_data]
        ncols = [d.shape[1] for d in out_data]
        return Batch(len(batch), [out_rb, out_cb, nrows, ncols, out_data])

    return MapBatches(source, apply, block_table_schema(), batch_size=64, label=label)


def elementwise_pipeline(
    source: Operator, fn: Callable[[np.ndarray], np.ndarray], label: str
) -> Operator:
    """Apply an element-wise function to every block (e.g. ReLU)."""

    def apply(rb: int, cb: int, block: np.ndarray):
        mapped = fn(block)
        if mapped.shape != block.shape:
            raise ShapeError(f"{label} must preserve block shape")
        return rb, cb, mapped

    return _map_blocks(source, apply, label)


def bias_add_pipeline(source: Operator, bias: np.ndarray, block_cols: int) -> Operator:
    """Broadcast-add a bias vector, sliced per column block."""
    bias = np.asarray(bias, dtype=np.float64).reshape(-1)

    def apply(rb: int, cb: int, block: np.ndarray):
        start = cb * block_cols
        segment = bias[start : start + block.shape[1]]
        if segment.size != block.shape[1]:
            raise ShapeError(
                f"bias of length {bias.size} does not cover column block {cb}"
            )
        return rb, cb, block + segment

    return _map_blocks(source, apply, "bias-add")


def transpose_pipeline(source: Operator) -> Operator:
    """Relational block transpose: swap block coordinates, transpose data.

    ``Aᵀ`` is a pure map over the block relation — no shuffle needed —
    which is what makes the relation-centric backward pass (``Xᵀ × dY``)
    expressible with the same operators as the forward pass.
    """
    return _map_blocks(source, lambda rb, cb, block: (cb, rb, block.T), "transpose")


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
    join = HashJoin(
        prefix_blocks(left, "l"),
        prefix_blocks(right, "r"),
        [ColumnRef("l_row_blk"), ColumnRef("l_col_blk")],
        [ColumnRef("r_row_blk"), ColumnRef("r_col_blk")],
    )

    def apply(rb: int, cb: int, a: np.ndarray, b: np.ndarray):
        if a.shape != b.shape:
            raise ShapeError(f"block ({rb}, {cb}) shapes differ: {a.shape} vs {b.shape}")
        return rb, cb, fn(a, b)

    return _map_blocks(join, apply, label, prefixes=("l", "r"))


def column_sum_pipeline(source: Operator) -> Operator:
    """Sum a block relation over its rows: one output block row per
    column block (used for bias gradients, ``db = Σ_rows dY``)."""
    collapsed = _map_blocks(
        source, lambda rb, cb, block: (0, cb, block.sum(axis=0, keepdims=True)), "col-sum"
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


def drain_to_matrix(
    source: Operator, shape: tuple[int, int], block_shape: tuple[int, int]
) -> BlockedMatrix:
    """Execute a block pipeline and collect the result blocks."""
    out = BlockedMatrix(shape, block_shape)
    for rb, cb, nrows, ncols, data in source:
        out.set_block(rb, cb, block_array(nrows, ncols, data))
    return out
