"""A single tensor block and its relational row encoding.

Block tables have the schema::

    (row_blk INT, col_blk INT, nrows INT, ncols INT, data BLOB)

where ``data`` is the raw little-endian float64 payload in row-major order.
Keeping shape in separate columns (rather than a header inside the BLOB)
lets the ``SUM_BLOCK`` aggregate add payloads byte-for-byte during the
matmul → join + aggregation rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class TensorBlock:
    """One block of a blocked matrix."""

    row_blk: int
    col_blk: int
    data: np.ndarray  # 2-D float64

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise ShapeError(f"tensor block must be 2-D, got shape {self.data.shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def nbytes(self) -> int:
        return self.data.nbytes


def block_to_row(block: TensorBlock) -> tuple[int, int, int, int, bytes]:
    """Encode a block as a row of the block-table schema."""
    data = np.ascontiguousarray(block.data, dtype=np.float64)
    return (
        block.row_blk,
        block.col_blk,
        data.shape[0],
        data.shape[1],
        data.tobytes(),
    )


def row_to_block(row: tuple) -> TensorBlock:
    """Decode a block-table row (tolerates extra leading columns)."""
    row_blk, col_blk, nrows, ncols, payload = row[-5:]
    array = np.frombuffer(payload, dtype=np.float64)
    if array.size != nrows * ncols:
        raise ShapeError(
            f"block payload has {array.size} elements, expected "
            f"{nrows}×{ncols}={nrows * ncols}"
        )
    return TensorBlock(row_blk, col_blk, array.reshape(nrows, ncols))
