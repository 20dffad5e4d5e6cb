"""The row-at-a-time connector the columnar one replaced.

Kept verbatim as the oracle for ``test_connector_oracle.py``: on DOUBLE,
BOOL and BLOB columns the columnar connector must write the same wire
bytes in the same chunks and deliver the same arrays.  This one sends INT
columns as float64, so it loses INT values beyond 2**53.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

import numpy as np

from repro.config import ConnectorCostModel
from repro.errors import ExecutionError
from repro.relational.operators.base import Operator
from repro.relational.schema import ColumnType

_U32 = struct.Struct("<I")


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
        wire_chunks: list[bytes] = []
        num_rows = 0
        for batch in _batched(source, batch_size):
            wire_chunks.append(self._serialize_batch(schema, batch))
            num_rows += len(batch)
        wire = b"".join(
            _U32.pack(len(chunk)) + chunk for chunk in wire_chunks
        )
        columns = self._deserialize(schema, wire, num_rows)
        elapsed = time.perf_counter() - start
        wire_bytes = len(wire)
        self.total_bytes_moved += wire_bytes
        self.total_rows_moved += num_rows
        modeled = self._cost_model.wire_time(
            wire_bytes, num_rows, nbatches=max(1, len(wire_chunks))
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
    def _serialize_batch(schema, batch: list[tuple]) -> bytes:
        """Columnar batch: for each column, a contiguous value array."""
        parts: list[bytes] = [_U32.pack(len(batch))]
        for idx, col in enumerate(schema):
            values = [row[idx] for row in batch]
            if col.ctype is ColumnType.BLOB:
                for value in values:
                    payload = value if value is not None else b""
                    parts.append(_U32.pack(len(payload)))
                    parts.append(bytes(payload))
            else:
                array = np.array(
                    [0.0 if v is None else float(v) for v in values], dtype=np.float64
                )
                parts.append(array.tobytes())
        return b"".join(parts)

    @staticmethod
    def _deserialize(schema, wire: bytes, total_rows: int) -> dict[str, np.ndarray]:
        columns: dict[str, list[np.ndarray]] = {col.name: [] for col in schema}
        offset = 0
        while offset < len(wire):
            (chunk_len,) = _U32.unpack_from(wire, offset)
            offset += 4
            chunk_end = offset + chunk_len
            (nrows,) = _U32.unpack_from(wire, offset)
            offset += 4
            for col in schema:
                if col.ctype is ColumnType.BLOB:
                    blobs = []
                    for __ in range(nrows):
                        (blen,) = _U32.unpack_from(wire, offset)
                        offset += 4
                        blobs.append(
                            np.frombuffer(wire[offset : offset + blen], dtype=np.float64)
                        )
                        offset += blen
                    if blobs:
                        columns[col.name].append(np.vstack(blobs))
                else:
                    nbytes = nrows * 8
                    columns[col.name].append(
                        np.frombuffer(wire[offset : offset + nbytes], dtype=np.float64)
                    )
                    offset += nbytes
            if offset != chunk_end:
                raise ExecutionError("connector wire format corrupted")
        out: dict[str, np.ndarray] = {}
        for col in schema:
            chunks = columns[col.name]
            if not chunks:
                out[col.name] = np.zeros(0)
            elif col.ctype is ColumnType.BLOB:
                out[col.name] = np.vstack(chunks)
            else:
                out[col.name] = np.concatenate(chunks)
            if col.ctype is ColumnType.INT:
                out[col.name] = out[col.name].astype(np.int64)
        return out


def _batched(source: Operator, batch_size: int):
    batch: list[tuple] = []
    for row in source:
        batch.append(row)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch
