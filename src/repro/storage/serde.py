"""Schema-driven row (de)serialization.

Encoding per row:

* a null bitmap of ``ceil(ncols / 8)`` bytes, then
* for each non-null column, a fixed- or length-prefixed value:
  INT → 8-byte little-endian signed, DOUBLE → 8-byte IEEE, BOOL → 1 byte,
  TEXT → u32 length + UTF-8 bytes, BLOB → u32 length + raw bytes.

BLOBs carry tensor blocks in the relation-centric representation, so rows
can be far larger than a page; the heap file handles that with overflow
chains — the serde itself is size-agnostic.

When every column is INT, DOUBLE or BOOL, a row without NULLs has one
fixed length and every value sits at a fixed offset, so a page of such
rows can be decoded at once through :attr:`RowSerde.record_dtype`.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from ..errors import StorageError
from ..relational.schema import ColumnType, Schema

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

_FIXED_FORMATS = {ColumnType.INT: "<i8", ColumnType.DOUBLE: "<f8", ColumnType.BOOL: "u1"}


class RowSerde:
    """Serialize/deserialize rows for one schema."""

    def __init__(self, schema: Schema):
        self._schema = schema
        self._bitmap_len = (len(schema) + 7) // 8
        self.record_dtype = self._record_dtype()
        self.blob_head_size = self._blob_head_size()

    @property
    def schema(self) -> Schema:
        return self._schema

    def _record_dtype(self) -> np.dtype | None:
        """The encoding of a NULL-free row as a structured dtype, or None.

        Field ``nulls`` is the bitmap; column ``i`` is field ``c<i>``.  Only
        schemas of INT, DOUBLE and BOOL columns have one.
        """
        if not len(self._schema) or any(
            col.ctype not in _FIXED_FORMATS for col in self._schema
        ):
            return None
        names, formats, offsets = ["nulls"], [("u1", (self._bitmap_len,))], [0]
        offset = self._bitmap_len
        for i, col in enumerate(self._schema):
            names.append(f"c{i}")
            formats.append(_FIXED_FORMATS[col.ctype])
            offsets.append(offset)
            offset += 1 if col.ctype is ColumnType.BOOL else 8
        return np.dtype(
            {"names": names, "formats": formats, "offsets": offsets, "itemsize": offset}
        )

    def _blob_head_size(self) -> int | None:
        """The longest head of a row whose last column is a BLOB and whose
        other columns are INT, DOUBLE or BOOL: the bitmap, every leading
        value and the BLOB's length prefix.  None for any other schema."""
        *leading, last = self._schema
        if last.ctype is not ColumnType.BLOB or any(
            col.ctype not in _FIXED_FORMATS for col in leading
        ):
            return None
        widths = (1 if col.ctype is ColumnType.BOOL else 8 for col in leading)
        return self._bitmap_len + sum(widths) + _U32.size

    def blob_head(self, data: bytes | bytearray) -> tuple[tuple[object, ...], int, int]:
        """Decode the head of a record with a trailing BLOB (a schema with a
        :attr:`blob_head_size`) from its first bytes: ``(leading values,
        offset of the BLOB's first byte, BLOB length)``.  NULL leading
        values take no bytes, so the head may be shorter than
        ``blob_head_size``; the bytes after it are the BLOB's."""
        blob = len(self._schema) - 1
        try:
            values, offset = self._decode(data, self._schema.columns[:blob])
            if data[blob // 8] & (1 << (blob % 8)):
                raise StorageError("the row's trailing BLOB is NULL")
            (length,) = _U32.unpack_from(data, offset)
        except (struct.error, IndexError):
            raise StorageError(f"a {len(data)}-byte row is too short for its head") from None
        return tuple(values), offset + _U32.size, length

    def record_columns(self, records: np.ndarray) -> list[np.ndarray]:
        """The columns of NULL-free records viewed through ``record_dtype``.

        ``.tolist()`` on a column gives the Python values :meth:`deserialize`
        would: BOOL decodes as byte ``!= 0``.
        """
        return [
            records[f"c{i}"] != 0 if col.ctype is ColumnType.BOOL else records[f"c{i}"]
            for i, col in enumerate(self._schema)
        ]

    def serialize(self, row: Sequence[object]) -> bytes:
        if len(row) != len(self._schema):
            raise StorageError(
                f"row arity {len(row)} does not match schema arity "
                f"{len(self._schema)}"
            )
        bitmap = bytearray(self._bitmap_len)
        body = bytearray()
        for i, (value, col) in enumerate(zip(row, self._schema)):
            if value is None:
                bitmap[i // 8] |= 1 << (i % 8)
                continue
            ctype = col.ctype
            if ctype is ColumnType.INT:
                body += _I64.pack(int(value))
            elif ctype is ColumnType.DOUBLE:
                body += _F64.pack(float(value))
            elif ctype is ColumnType.BOOL:
                body.append(1 if value else 0)
            elif ctype is ColumnType.TEXT:
                encoded = str(value).encode("utf-8")
                body += _U32.pack(len(encoded))
                body += encoded
            elif ctype is ColumnType.BLOB:
                payload = bytes(value)
                body += _U32.pack(len(payload))
                body += payload
            else:  # pragma: no cover - exhaustive over ColumnType
                raise StorageError(f"unsupported column type {ctype}")
        return bytes(bitmap) + bytes(body)

    def deserialize(self, data: bytes | memoryview) -> tuple[object, ...]:
        """Decode one record.  From a ``memoryview`` each TEXT or BLOB value
        is copied once, into its own ``str`` or ``bytes``."""
        values, offset = self._decode(data, self._schema)
        if offset != len(data):
            raise StorageError(
                f"trailing bytes after row: consumed {offset} of {len(data)}"
            )
        return tuple(values)

    def _decode(self, data, columns) -> tuple[list[object], int]:
        """The values of a record's first ``len(columns)`` columns, and the
        offset just past them."""
        bitmap = data[: self._bitmap_len]
        offset = self._bitmap_len
        values: list[object] = []
        for i, col in enumerate(columns):
            if bitmap[i // 8] & (1 << (i % 8)):
                values.append(None)
                continue
            ctype = col.ctype
            if ctype is ColumnType.INT:
                values.append(_I64.unpack_from(data, offset)[0])
                offset += 8
            elif ctype is ColumnType.DOUBLE:
                values.append(_F64.unpack_from(data, offset)[0])
                offset += 8
            elif ctype is ColumnType.BOOL:
                values.append(data[offset] != 0)
                offset += 1
            elif ctype is ColumnType.TEXT:
                (length,) = _U32.unpack_from(data, offset)
                offset += 4
                values.append(str(data[offset : offset + length], "utf-8"))
                offset += length
            elif ctype is ColumnType.BLOB:
                (length,) = _U32.unpack_from(data, offset)
                offset += 4
                values.append(bytes(data[offset : offset + length]))
                offset += length
            else:  # pragma: no cover
                raise StorageError(f"unsupported column type {ctype}")
        return values, offset
