"""Heap files: slotted pages chained into an append-friendly table store.

Layout of a heap page::

    +--------------------------------------------------------------+
    | u16 slot_count | u32 data_start | i64 next_page_id | slots...|
    |  ...free space...                       records (grow down)  |
    +--------------------------------------------------------------+

Each slot is ``(u32 offset, u32 length, u8 flags)``.  Records larger than
the free space of an empty page are stored in *overflow chains*: the slot
payload then holds ``(i64 first_overflow_page, u32 total_length)`` and the
flag bit ``FLAG_OVERFLOW`` is set.  Tensor-block BLOBs routinely exceed the
page size, so overflow support is load-bearing for the relation-centric
engine, not an edge case.

Scans decode a page of a fixed-width table (every column INT, DOUBLE or
BOOL) with numpy: the slot directory and every NULL-free inline record are
read as arrays in one gather each.  Any other row — one with a NULL, an
overflow chain, an unexpected length — and every row of a table with a TEXT
or BLOB column goes through :meth:`RowSerde.deserialize`.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from ..errors import StorageError
from ..relational.batch import Batch
from .buffer_pool import BufferPool
from .page import INVALID_PAGE_ID, Page, PageId
from .serde import RowSerde

_HEADER = struct.Struct("<HIq")  # slot_count, data_start, next_page_id
_SLOT = struct.Struct("<IIB")  # offset, length, flags
_SLOT_DTYPE = np.dtype([("offset", "<u4"), ("length", "<u4"), ("flags", "u1")])
_OVERFLOW_REF = struct.Struct("<qI")  # first overflow page id, total length
_OVERFLOW_HEADER = struct.Struct("<Iq")  # chunk length, next page id

FLAG_TOMBSTONE = 0x1
FLAG_OVERFLOW = 0x2


class RowId(NamedTuple):
    """Physical address of a row: (page, slot)."""

    page_id: PageId
    slot: int


class HeapFile:
    """An unordered collection of rows with stable :class:`RowId` addresses."""

    def __init__(self, pool: BufferPool, serde: RowSerde, first_page_id: PageId | None = None):
        self._pool = pool
        self._serde = serde
        records = serde.record_dtype
        # Decided once: which of the two page decoders the scan loop uses.
        self._fixed_width = (
            records is not None and records.itemsize <= pool.disk.page_size - _HEADER.size
        )
        if first_page_id is None:
            page = pool.new_page()
            try:
                self._init_page(page)
            finally:
                pool.unpin_page(page.page_id, dirty=True)
            self._first_page_id = page.page_id
            self._last_page_id = page.page_id
        else:
            self._first_page_id = first_page_id
            self._last_page_id = self._find_last_page(first_page_id)

    @property
    def first_page_id(self) -> PageId:
        return self._first_page_id

    @property
    def serde(self) -> RowSerde:
        return self._serde

    # -- page helpers ------------------------------------------------------

    @staticmethod
    def _init_page(page: Page) -> None:
        page.write(0, _HEADER.pack(0, page.size, INVALID_PAGE_ID))

    @staticmethod
    def _read_header(page: Page) -> tuple[int, int, PageId]:
        return _HEADER.unpack_from(page.data, 0)

    @staticmethod
    def _write_header(page: Page, slot_count: int, data_start: int, next_page: PageId) -> None:
        page.write(0, _HEADER.pack(slot_count, data_start, next_page))

    @staticmethod
    def _slot_offset(slot: int) -> int:
        return _HEADER.size + slot * _SLOT.size

    @classmethod
    def _read_slot(cls, page: Page, slot: int) -> tuple[int, int, int]:
        return _SLOT.unpack_from(page.data, cls._slot_offset(slot))

    @classmethod
    def _write_slot(cls, page: Page, slot: int, offset: int, length: int, flags: int) -> None:
        page.write(cls._slot_offset(slot), _SLOT.pack(offset, length, flags))

    def _find_last_page(self, first_page_id: PageId) -> PageId:
        page_id = first_page_id
        while True:
            page = self._pool.fetch_page(page_id)
            try:
                __, __, next_page = self._read_header(page)
            finally:
                self._pool.unpin_page(page_id)
            if next_page == INVALID_PAGE_ID:
                return page_id
            page_id = next_page

    def _free_space(self, page: Page) -> int:
        slot_count, data_start, __ = self._read_header(page)
        slots_end = self._slot_offset(slot_count)
        return data_start - slots_end

    # -- insertion ---------------------------------------------------------

    def insert(self, row: Sequence[object]) -> RowId:
        """Serialize and append one row; returns its stable address."""
        payload = self._serde.serialize(row)
        page_capacity = self._pool.disk.page_size - _HEADER.size - _SLOT.size
        if len(payload) > page_capacity:
            # Too big for any page: spill the payload to an overflow chain
            # and store only a reference slot inline.
            first_overflow = self._write_overflow_chain(payload)
            payload = _OVERFLOW_REF.pack(first_overflow, len(payload))
            flags = FLAG_OVERFLOW
        else:
            flags = 0
        page = self._pool.fetch_page(self._last_page_id)
        try:
            if self._free_space(page) < len(payload) + _SLOT.size:
                # _append_page transfers our pin to the fresh page.
                page = self._append_page(page)
            return self._insert_inline(page, payload, flags)
        finally:
            self._pool.unpin_page(page.page_id, dirty=True)

    def _append_page(self, current: Page) -> Page:
        """Link a fresh page after ``current`` and switch to it.

        The caller holds a pin on ``current``; on return the caller's pin is
        transferred to the new page (we unpin ``current`` here).
        """
        new_page = self._pool.new_page()
        self._init_page(new_page)
        slot_count, data_start, __ = self._read_header(current)
        self._write_header(current, slot_count, data_start, new_page.page_id)
        self._pool.unpin_page(current.page_id, dirty=True)
        self._last_page_id = new_page.page_id
        return new_page

    def _insert_inline(self, page: Page, payload: bytes, flags: int = 0) -> RowId:
        slot_count, data_start, next_page = self._read_header(page)
        offset = data_start - len(payload)
        page.write(offset, payload)
        self._write_slot(page, slot_count, offset, len(payload), flags)
        self._write_header(page, slot_count + 1, offset, next_page)
        return RowId(page.page_id, slot_count)

    def _write_overflow_chain(self, payload: bytes) -> PageId:
        chunk_capacity = self._pool.disk.page_size - _OVERFLOW_HEADER.size
        chunks = [
            payload[i : i + chunk_capacity]
            for i in range(0, len(payload), chunk_capacity)
        ] or [b""]
        first_page_id = INVALID_PAGE_ID
        prev: Page | None = None
        for chunk in chunks:
            page = self._pool.new_page()
            page.write(0, _OVERFLOW_HEADER.pack(len(chunk), INVALID_PAGE_ID))
            page.write(_OVERFLOW_HEADER.size, chunk)
            if prev is None:
                first_page_id = page.page_id
            else:
                length, __ = _OVERFLOW_HEADER.unpack_from(prev.data, 0)
                prev.write(0, _OVERFLOW_HEADER.pack(length, page.page_id))
                self._pool.unpin_page(prev.page_id, dirty=True)
            prev = page
        if prev is not None:
            self._pool.unpin_page(prev.page_id, dirty=True)
        return first_page_id

    def _read_overflow_chain(self, first_page_id: PageId, total_length: int) -> bytes:
        parts: list[bytes] = []
        page_id = first_page_id
        remaining = total_length
        while page_id != INVALID_PAGE_ID and remaining > 0:
            page = self._pool.fetch_page(page_id)
            try:
                length, next_page = _OVERFLOW_HEADER.unpack_from(page.data, 0)
                parts.append(page.read(_OVERFLOW_HEADER.size, length))
            finally:
                self._pool.unpin_page(page_id)
            remaining -= length
            page_id = next_page
        data = b"".join(parts)
        if len(data) != total_length:
            raise StorageError(
                f"overflow chain truncated: expected {total_length} bytes, "
                f"got {len(data)}"
            )
        return data

    # -- reads -------------------------------------------------------------

    def fetch(self, rid: RowId) -> tuple[object, ...]:
        """Read one row by address."""
        page = self._pool.fetch_page(rid.page_id)
        try:
            slot_count, __, __ = self._read_header(page)
            if rid.slot >= slot_count:
                raise StorageError(f"no slot {rid.slot} on page {rid.page_id}")
            offset, length, flags = self._read_slot(page, rid.slot)
            if flags & FLAG_TOMBSTONE:
                raise StorageError(f"row {rid} was deleted")
            payload = page.read(offset, length)
        finally:
            self._pool.unpin_page(rid.page_id)
        return self._decode_row(payload, flags)

    def _decode_row(self, payload: bytes, flags: int) -> tuple[object, ...]:
        if flags & FLAG_OVERFLOW:
            first_overflow, total_length = _OVERFLOW_REF.unpack(payload)
            payload = self._read_overflow_chain(first_overflow, total_length)
        return self._serde.deserialize(payload)

    def delete(self, rid: RowId) -> None:
        """Tombstone one row (space is not reclaimed)."""
        page = self._pool.fetch_page(rid.page_id)
        try:
            offset, length, flags = self._read_slot(page, rid.slot)
            self._write_slot(page, rid.slot, offset, length, flags | FLAG_TOMBSTONE)
        finally:
            self._pool.unpin_page(rid.page_id, dirty=True)

    def scan(self) -> Iterator[tuple[RowId, tuple[object, ...]]]:
        """Yield every live row with its address, in physical order."""
        for page_id, slots, batch in self._scan():
            for slot, row in zip(slots, batch.rows()):
                yield RowId(page_id, slot), row

    def scan_batches(self) -> Iterator[Batch]:
        """Every live row, in physical order, as :class:`Batch` es.

        A fixed-width table yields one columnar batch per page.  Otherwise
        a page's inline rows form one batch and each overflow row one of its
        own, read from its chain only when the scan reaches it, so a scan
        holds at most a page's rows plus one overflow row.
        """
        return map(itemgetter(2), self._scan())

    def _scan(self) -> Iterator[tuple[PageId, list[int], Batch]]:
        """The scan loop: ``(page id, slots, the rows in those slots)``.

        Each page is fetched once.  What the decoders need from it is copied
        out while it is pinned; nothing is yielded, and no view of its
        buffer survives, past the unpin.
        """
        page_id = self._first_page_id
        while page_id != INVALID_PAGE_ID:
            page = self._pool.fetch_page(page_id)
            try:
                slot_count, __, next_page = self._read_header(page)
                read = self._read_records if self._fixed_width else self._read_payloads
                batches = read(page, slot_count)
            finally:
                self._pool.unpin_page(page_id)
            for slots, batch in batches:
                yield page_id, slots, batch
            page_id = next_page

    def _read_payloads(self, page: Page, slot_count: int):
        """Row path: copy every live payload now, deserialize them later."""
        slots = [self._read_slot(page, s) for s in range(slot_count)]
        payloads = [
            (s, page.read(offset, length), flags)
            for s, (offset, length, flags) in enumerate(slots)
            if not flags & FLAG_TOMBSTONE
        ]
        return self._payload_batches(payloads)

    def _payload_batches(self, payloads: list[tuple[int, bytes, int]]):
        slots: list[int] = []
        rows: list[tuple] = []
        for slot, payload, flags in payloads:
            if flags & FLAG_OVERFLOW:
                if rows:
                    yield slots, Batch(len(rows), rows=rows)
                    slots, rows = [], []
                yield [slot], Batch(1, rows=[self._decode_row(payload, flags)])
            else:
                slots.append(slot)
                rows.append(self._serde.deserialize(payload))
        if rows:
            yield slots, Batch(len(rows), rows=rows)

    def _read_records(self, page: Page, slot_count: int):
        """Fixed-width path: the slot directory, then every NULL-free inline
        record of the expected length, each read in one numpy gather.

        Both gathers copy; the other live rows' payloads are copied for
        :meth:`_decode_row`.
        """
        dtype = self._serde.record_dtype
        data = np.frombuffer(page.data, dtype=np.uint8)
        directory = data[_HEADER.size : self._slot_offset(slot_count)].view(_SLOT_DTYPE)
        live = np.flatnonzero((directory["flags"] & FLAG_TOMBSTONE) == 0)
        offsets = directory["offset"][live].astype(np.intp)
        lengths = directory["length"][live]
        flags = directory["flags"][live]
        fast = (
            ((flags & FLAG_OVERFLOW) == 0)
            & (lengths == dtype.itemsize)
            & (offsets + dtype.itemsize <= page.size)
        )
        windows = np.lib.stride_tricks.sliding_window_view(data, dtype.itemsize)
        records = windows[offsets[fast]].view(dtype)[:, 0]
        nulls = records["nulls"].any(axis=1)
        if nulls.any():
            fast[fast] = ~nulls
            records = records[~nulls]
        slow = ~fast
        others = [
            (page.read(offset, length), flag)
            for offset, length, flag in zip(
                offsets[slow].tolist(), lengths[slow].tolist(), flags[slow].tolist()
            )
        ]
        return self._record_batches(live.tolist(), fast, records, others)

    def _record_batches(
        self,
        slots: list[int],
        fast: np.ndarray,
        records: np.ndarray,
        others: list[tuple[bytes, int]],
    ):
        columns = self._serde.record_columns(records)
        if not others:
            if slots:
                yield slots, Batch(len(slots), columns)
            return
        # Rare: merge the decoded rows back into physical order.
        clean = iter(Batch(len(records), columns).rows())
        decoded = iter([self._decode_row(payload, flag) for payload, flag in others])
        rows = [next(clean) if is_fast else next(decoded) for is_fast in fast.tolist()]
        yield slots, Batch(len(slots), rows=rows)

    def count(self) -> int:
        """Number of live rows (full scan)."""
        return sum(len(batch) for batch in self.scan_batches())
