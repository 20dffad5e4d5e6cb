"""The relational encoding of tensor blocks.

Block tables have the schema::

    (row_blk INT, col_blk INT, nrows INT, ncols INT, data BLOB)

where ``data`` is the float64 payload in row-major order.  Inside an
operator pipeline ``data`` is an ``nrows × ncols`` float64 array, which
may be a strided view (an input stripe's blocks are read-only views of
the stripe); it becomes ``bytes`` only when a row is written to a heap
page (or leaves a ``SUM_BLOCK`` aggregate).  Keeping shape in separate
columns (rather than a header inside the BLOB) lets ``SUM_BLOCK`` add
payloads without decoding them during the matmul → join + aggregation
rewrite.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..relational.schema import ColumnType, Schema


_BLOCK_TABLE_SCHEMA = Schema.of(
    ("row_blk", ColumnType.INT),
    ("col_blk", ColumnType.INT),
    ("nrows", ColumnType.INT),
    ("ncols", ColumnType.INT),
    ("data", ColumnType.BLOB),
)


def block_table_schema() -> Schema:
    """Schema shared by every tensor-block relation (one immutable instance,
    so its column bindings are resolved once per process)."""
    return _BLOCK_TABLE_SCHEMA


def block_array(nrows: int, ncols: int, data) -> np.ndarray:
    """A block's ``data`` value as an ``nrows × ncols`` float64 array; no
    copy is made.  ``bytes`` are viewed; an array is returned as it is, so
    it must be float64 of exactly that shape (strides are free)."""
    if isinstance(data, np.ndarray):
        if data.dtype != np.float64 or data.shape != (nrows, ncols):
            raise ShapeError(
                f"a block array must be float64 {nrows}×{ncols}, got "
                f"{data.dtype} {data.shape}"
            )
        return data
    try:
        array = np.frombuffer(data, dtype=np.float64)
    except ValueError:
        raise ShapeError(
            f"a {memoryview(data).nbytes}-byte block payload is not whole doubles"
        ) from None
    if array.size != nrows * ncols:
        raise ShapeError(
            f"block payload has {array.size} elements, expected "
            f"{nrows}×{ncols}={nrows * ncols}"
        )
    return array.reshape(nrows, ncols)
