"""ConnectorX-style cross-system data transfer.

The paper's DL-centric baselines pull samples out of PostgreSQL through
ConnectorX before handing them to TensorFlow/PyTorch.  This connector does
the analogous *real work*: it reads the query's column batches, re-cut to
``batch_size`` rows, serializes each chunk into a columnar byte buffer (the
wire format), then deserializes that buffer into numpy arrays on the
"framework side".  The copy through bytes is genuine CPU cost; on top of
it, a :class:`~repro.config.ConnectorCostModel` supplies the modeled wire
time for the deployment being simulated, which benchmarks report
separately.

Wire format: each chunk is ``u32 chunk length``, ``u32 rows``, then each
column in schema order.  A DOUBLE or BOOL column is ``rows`` float64
values, an INT column ``rows`` int64 values, a BLOB column ``u32 length +
payload`` per row.  A NULL crosses as 0 (an empty payload for BLOB).  A
numpy column is one ``tobytes()``; a column of Python values (NULLs,
row-only sources, TEXT/BLOB tables) is converted value by value.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..config import ConnectorCostModel
from ..errors import ExecutionError
from ..relational.batch import Batch, ColumnValues, rechunk
from ..relational.operators.base import Operator
from ..relational.schema import ColumnType, Schema

_U32 = struct.Struct("<I")
_INT64 = np.dtype("<i8")
_FLOAT64 = np.dtype("<f8")


@dataclass
class ExtractResult:
    """Arrays delivered to the framework side, plus transfer accounting."""

    columns: dict[str, np.ndarray]
    num_rows: int
    wire_bytes: int
    serialize_seconds: float
    modeled_wire_seconds: float

    def feature_matrix(self, names: list[str]) -> np.ndarray:
        """Stack named numeric columns into a (rows, features) matrix."""
        return np.column_stack([self.columns[n.lower()] for n in names])


class Connector:
    """Extracts query results across the RDBMS ↔ framework boundary."""

    def __init__(self, cost_model: ConnectorCostModel | None = None):
        self._cost_model = cost_model if cost_model is not None else ConnectorCostModel()
        self.total_bytes_moved = 0
        self.total_rows_moved = 0

    def extract(self, source: Operator, batch_size: int = 8192) -> ExtractResult:
        """Run ``source`` and move its output to the framework side.

        Only numeric and BLOB columns can cross the boundary (matching the
        arrays a DL framework consumes).  BLOB columns are delivered as
        float64 matrices with one row per tuple.
        """
        schema = source.schema
        for col in schema:
            if col.ctype is ColumnType.TEXT:
                raise ExecutionError(
                    f"connector cannot transfer TEXT column {col.name!r}; "
                    "project it away first"
                )
        start = time.perf_counter()
        wire, num_rows, nchunks = self._serialize(
            schema, rechunk(source.batches(), batch_size)
        )
        columns = self._deserialize(schema, wire)
        elapsed = time.perf_counter() - start
        wire_bytes = len(wire)
        self.total_bytes_moved += wire_bytes
        self.total_rows_moved += num_rows
        modeled = self._cost_model.wire_time(
            wire_bytes, num_rows, nbatches=max(1, nchunks)
        )
        return ExtractResult(
            columns=columns,
            num_rows=num_rows,
            wire_bytes=wire_bytes,
            serialize_seconds=elapsed,
            modeled_wire_seconds=modeled,
        )

    # -- wire format -----------------------------------------------------

    @staticmethod
    def _serialize(schema: Schema, chunks: Iterable[Batch]) -> tuple[bytes, int, int]:
        """The wire for ``chunks``, with its row and chunk counts."""
        parts: list[bytes] = []
        num_rows = nchunks = 0
        for batch in chunks:
            head = len(parts)
            parts += (b"", _U32.pack(batch.size))
            for col, values in zip(schema, batch.columns):
                _encode_column(col.ctype, values, parts)
            parts[head] = _U32.pack(sum(map(len, parts[head + 1 :])))
            num_rows += batch.size
            nchunks += 1
        return b"".join(parts), num_rows, nchunks

    @staticmethod
    def _deserialize(schema: Schema, wire: bytes) -> dict[str, np.ndarray]:
        columns: dict[str, list[np.ndarray]] = {col.name: [] for col in schema}
        view = memoryview(wire)
        offset = 0
        while offset < len(wire):
            (chunk_len,) = _U32.unpack_from(wire, offset)
            offset += 4
            chunk_end = offset + chunk_len
            (nrows,) = _U32.unpack_from(wire, offset)
            offset += 4
            for col in schema:
                if col.ctype is ColumnType.BLOB:
                    # Every chunk must match the first chunk's width.
                    blocks = columns[col.name]
                    width = 8 * blocks[0].shape[1] if blocks else None
                    block, offset = _decode_blobs(col.name, view, offset, nrows, width)
                else:
                    dtype = _wire_dtype(col.ctype)
                    block = np.frombuffer(wire, dtype, count=nrows, offset=offset)
                    offset += nrows * dtype.itemsize
                columns[col.name].append(block)
            if offset != chunk_end:
                raise ExecutionError("connector wire format corrupted")
        out: dict[str, np.ndarray] = {}
        for col in schema:
            chunks = columns[col.name]
            if not chunks:
                out[col.name] = np.zeros(0, _wire_dtype(col.ctype))
            elif col.ctype is ColumnType.BLOB:
                out[col.name] = np.vstack(chunks)
            else:
                out[col.name] = np.concatenate(chunks)
        return out


def _wire_dtype(ctype: ColumnType) -> np.dtype:
    return _INT64 if ctype is ColumnType.INT else _FLOAT64


def _encode_column(ctype: ColumnType, values: ColumnValues, parts: list[bytes]) -> None:
    """Append one column of a chunk to ``parts``."""
    if ctype is ColumnType.BLOB:
        for value in values:
            payload = value if value is not None else b""
            parts.append(_U32.pack(len(payload)))
            parts.append(bytes(payload))
        return
    dtype = _wire_dtype(ctype)
    if not isinstance(values, np.ndarray):
        convert = int if ctype is ColumnType.INT else float
        values = np.array([0 if v is None else convert(v) for v in values], dtype)
    parts.append(values.astype(dtype, copy=False).tobytes())


def _decode_blobs(
    name: str, wire: memoryview, offset: int, nrows: int, width: int | None
) -> tuple[np.ndarray, int]:
    """One chunk's BLOB column as a (rows, doubles) matrix, and the offset
    past it.  Every payload must be ``width`` bytes (the chunk's first
    payload's length when ``width`` is None), a whole number of doubles."""
    payloads = []
    for __ in range(nrows):
        (blen,) = _U32.unpack_from(wire, offset)
        offset += 4
        payloads.append(wire[offset : offset + blen])
        offset += blen
    if width is None:
        width = len(payloads[0])
    if any(len(p) != width for p in payloads):
        raise ExecutionError(
            f"connector cannot deliver BLOB column {name!r}: payload lengths differ"
        )
    if width % 8:
        raise ExecutionError(
            f"connector cannot deliver BLOB column {name!r}: a {width}-byte "
            "payload is not a whole number of doubles"
        )
    matrix = np.frombuffer(b"".join(payloads), np.float64)
    return matrix.reshape(nrows, width // 8), offset
