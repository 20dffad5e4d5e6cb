"""Blocked matrices: chunked views of dense matrices.

``BlockedMatrix`` holds blocks in a dict keyed by (block-row, block-col).
The relation-centric engine never materializes the dense matrix: it streams
blocks into heap tables and back out.  Dense round trips exist for tests
and for small results.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ShapeError
from ..storage.catalog import Catalog, TableInfo
from .block import block_array, block_table_schema


class BlockedMatrix:
    """A (possibly ragged-edged) blocked 2-D matrix."""

    def __init__(self, shape: tuple[int, int], block_shape: tuple[int, int]):
        if shape[0] <= 0 or shape[1] <= 0:
            raise ShapeError(f"matrix shape must be positive, got {shape}")
        if block_shape[0] <= 0 or block_shape[1] <= 0:
            raise ShapeError(f"block shape must be positive, got {block_shape}")
        self.shape = shape
        self.block_shape = block_shape
        self._blocks: dict[tuple[int, int], np.ndarray] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dense(
        cls, array: np.ndarray, block_shape: tuple[int, int]
    ) -> "BlockedMatrix":
        """Block ``array`` without copying it (an array of another dtype
        is converted to float64 first): every block is a strided view,
        marked read-only so no operator writes into the caller's array
        (``SUM_BLOCK`` adopts writable arrays).  numpy's matmul hands a
        strided block to BLAS with its leading dimension."""
        if array.ndim != 2:
            raise ShapeError(f"expected a 2-D array, got shape {array.shape}")
        array = np.asarray(array, dtype=np.float64)
        out = cls(array.shape, block_shape)  # type: ignore[arg-type]
        br, bc = block_shape
        for i in range(out.num_block_rows):
            for j in range(out.num_block_cols):
                block = array[i * br : (i + 1) * br, j * bc : (j + 1) * bc]
                block.flags.writeable = False
                out._blocks[(i, j)] = block
        return out

    # -- geometry ----------------------------------------------------------

    @property
    def num_block_rows(self) -> int:
        return -(-self.shape[0] // self.block_shape[0])

    @property
    def num_block_cols(self) -> int:
        return -(-self.shape[1] // self.block_shape[1])

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    def block_dims(self, i: int, j: int) -> tuple[int, int]:
        """Shape of block (i, j), accounting for ragged edges."""
        br, bc = self.block_shape
        rows = min(br, self.shape[0] - i * br)
        cols = min(bc, self.shape[1] - j * bc)
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"block ({i}, {j}) out of range for {self.shape}")
        return rows, cols

    # -- block access --------------------------------------------------------

    def get_block(self, i: int, j: int) -> np.ndarray:
        """Block (i, j); missing blocks read as zeros (sparse-friendly)."""
        block = self._blocks.get((i, j))
        if block is None:
            return np.zeros(self.block_dims(i, j))
        return block

    def set_block(self, i: int, j: int, data: np.ndarray) -> None:
        expected = self.block_dims(i, j)
        if data.shape != expected:
            raise ShapeError(
                f"block ({i}, {j}) must have shape {expected}, got {data.shape}"
            )
        self._blocks[(i, j)] = np.ascontiguousarray(data, dtype=np.float64)

    def block_rows(self) -> Iterator[tuple]:
        """The blocks as block-table rows ``(row_blk, col_blk, nrows, ncols,
        data)`` in block order; ``data`` is the stored array itself."""
        for (i, j), data in sorted(self._blocks.items()):
            yield (i, j, data.shape[0], data.shape[1], data)

    # -- conversion ----------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        br, bc = self.block_shape
        for (i, j), block in self._blocks.items():
            out[
                i * br : i * br + block.shape[0], j * bc : j * bc + block.shape[1]
            ] = block
        return out

    # -- blockwise math ------------------------------------------------------

    def row_softmax(self) -> "BlockedMatrix":
        """Numerically stable row-wise softmax across column blocks.

        Softmax needs whole rows, which span column blocks, so this is the
        classic two-pass blocked algorithm: pass one computes per-row max
        and the sum of shifted exponentials; pass two normalises.
        """
        row_max = np.full(self.shape[0], -np.inf)
        br = self.block_shape[0]
        for (i, __), block in self._blocks.items():
            rows = slice(i * br, i * br + block.shape[0])
            np.maximum(row_max[rows], block.max(axis=1), out=row_max[rows])
        row_sum = np.zeros(self.shape[0])
        for (i, __), block in self._blocks.items():
            rows = slice(i * br, i * br + block.shape[0])
            row_sum[rows] += np.exp(block - row_max[rows, None]).sum(axis=1)
        out = BlockedMatrix(self.shape, self.block_shape)
        for (i, j), block in self._blocks.items():
            rows = slice(i * br, i * br + block.shape[0])
            out._blocks[(i, j)] = np.exp(block - row_max[rows, None]) / row_sum[
                rows, None
            ]
        return out

    # -- persistence through the relational engine ---------------------------

    def store(self, catalog: Catalog, table_name: str) -> TableInfo:
        """Materialise the blocks into a heap table (creates the table)."""
        info = catalog.create_table(table_name, block_table_schema())
        for row in self.block_rows():
            info.heap.insert(row)
            info.row_count += 1
        return info

    @classmethod
    def load(
        cls,
        table: TableInfo,
        shape: tuple[int, int],
        block_shape: tuple[int, int],
    ) -> "BlockedMatrix":
        """Rebuild a blocked matrix by scanning its heap table."""
        out = cls(shape, block_shape)
        for __, (i, j, nrows, ncols, data) in table.heap.scan():
            out.set_block(i, j, block_array(nrows, ncols, data))
        return out
