"""Heap files: slotted pages chained into an append-friendly table store.

Layout of a heap page::

    +--------------------------------------------------------------+
    | u16 slot_count | u32 data_start | i64 next_page_id | slots...|
    |  ...free space...                       records (grow down)  |
    +--------------------------------------------------------------+

Each slot is ``(u32 offset, u32 length, u8 flags)``.  A record larger than
the free space of an empty page is an *overflow row* (flag bit
``FLAG_OVERFLOW``).  Its slot holds ``(i64 first_overflow_page, u32
total_length)`` followed by the *inline remainder*: the first
``total_length % chunk_capacity`` bytes.  The rest fill whole pages of an
*overflow chain*, each page ``(u32 chunk_length, i64 next_page_id)`` plus a
full chunk.  Only a remainder too long for an empty page's slot space goes
to the chain instead, whose last page is then partial.  A 128×128 float64
block (131 109 bytes) thus takes two 64 KiB chain pages and a 73-byte slot.
A slot that holds only the reference is the empty-remainder case, so one
decoder reads every overflow row.  Tensor-block BLOBs routinely exceed the
page size, so overflow support is load-bearing for the relation-centric
engine, not an edge case.

One chain walker reads every overflow row, and hands each piece (the
inline remainder, then each chain chunk while its frame is pinned) to one
of two sinks.  :meth:`HeapFile.fetch` and the scans copy the pieces into
one buffer that :meth:`RowSerde.deserialize` slices values out of, so a
BLOB is copied out of the pool twice (frame → buffer → value).
:meth:`HeapFile.scan_into` decodes a row's head as it arrives and copies
its trailing BLOB straight from the frames into an array the caller
places, so a chain byte is copied once (frame → caller's array).

Scans decode a page of a fixed-width table (every column INT, DOUBLE or
BOOL) with numpy: the slot directory and every NULL-free inline record are
read as arrays in one gather each.  Any other row — one with a NULL, an
overflow chain, an unexpected length — and every row of a table with a TEXT
or BLOB column goes through :meth:`RowSerde.deserialize`.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

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
        self._generation = 0
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

    @property
    def pool(self) -> BufferPool:
        return self._pool

    @property
    def generation(self) -> int:
        """How many writes (inserts and deletes) the heap has taken: what
        is derived from its rows is keyed by this, so a write retires it."""
        return self._generation

    def _written(self) -> None:
        self._generation += 1
        self._pool.drop_blocks(self._first_page_id)

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
        self._written()
        page_size = self._pool.disk.page_size
        page_capacity = page_size - _HEADER.size - _SLOT.size
        if len(payload) > page_capacity:
            # Too big for any page: whole chunks go to an overflow chain,
            # the remainder stays inline after the reference if it fits.
            inline = len(payload) % (page_size - _OVERFLOW_HEADER.size)
            if _OVERFLOW_REF.size + inline > page_capacity:
                inline = 0
            first_overflow = self._write_overflow_chain(memoryview(payload)[inline:])
            payload = _OVERFLOW_REF.pack(first_overflow, len(payload)) + payload[:inline]
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

    def _write_overflow_chain(self, payload: memoryview) -> PageId:
        chunk_capacity = self._pool.disk.page_size - _OVERFLOW_HEADER.size
        first_page_id = INVALID_PAGE_ID
        prev: Page | None = None
        for start in range(0, len(payload), chunk_capacity):
            chunk = payload[start : start + chunk_capacity]
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

    def _overflow_ref(self, slot_payload: bytes) -> tuple[PageId, int, memoryview]:
        """An overflow slot's chain reference: ``(first chain page, record
        length, the inline remainder)``."""
        first_page_id, total_length = _OVERFLOW_REF.unpack_from(slot_payload)
        inline = memoryview(slot_payload)[_OVERFLOW_REF.size :]
        if len(inline) > total_length:
            raise StorageError(
                f"overflow chain from page {first_page_id} is corrupt: its slot "
                f"holds {len(inline)} inline bytes; expected {total_length} bytes in all"
            )
        return first_page_id, total_length, inline

    def _copy_chain(
        self,
        first_page_id: PageId,
        total_length: int,
        filled: int,
        sink: Callable[[memoryview, int], None],
        pages: list[PageId] | None = None,
    ) -> None:
        """Walk an overflow row's chain from record byte ``filled`` on:
        ``sink(chunk, offset in the record)`` gets each chunk while its
        frame is pinned, and must copy what it keeps.  Each chain page id
        is appended to ``pages`` if one is given."""
        chunk_capacity = self._pool.disk.page_size - _OVERFLOW_HEADER.size
        page_id = first_page_id
        while filled < total_length:
            if pages is not None and page_id != INVALID_PAGE_ID:
                pages.append(page_id)
            if page_id == INVALID_PAGE_ID:
                raise StorageError(
                    f"overflow chain from page {first_page_id} ends early: "
                    f"expected {total_length} bytes, read {filled}"
                )
            page = self._pool.fetch_page(page_id)
            try:
                length, next_page = _OVERFLOW_HEADER.unpack_from(page.data, 0)
                if not 0 < length <= min(chunk_capacity, total_length - filled):
                    raise StorageError(
                        f"overflow chain from page {first_page_id} is corrupt: "
                        f"page {page_id} claims a {length}-byte chunk; expected "
                        f"{total_length} bytes, read {filled}"
                    )
                start = _OVERFLOW_HEADER.size
                sink(memoryview(page.data)[start : start + length], filled)
            finally:
                self._pool.unpin_page(page_id)
            filled += length
            page_id = next_page

    def _read_overflow_row(self, slot_payload: bytes) -> memoryview:
        """The whole record of an overflow row, in one buffer: the slot's
        inline remainder, then each chain chunk copied from its frame."""
        first_page_id, total_length, inline = self._overflow_ref(slot_payload)
        view = memoryview(bytearray(total_length))
        view[: len(inline)] = inline

        def copy(chunk: memoryview, at: int) -> None:
            view[at : at + len(chunk)] = chunk

        self._copy_chain(first_page_id, total_length, len(inline), copy)
        return view

    # -- reads -------------------------------------------------------------

    def _slot_of(self, page: Page, rid: RowId) -> tuple[int, int, int]:
        slot_count, __, __ = self._read_header(page)
        if not 0 <= rid.slot < slot_count:
            raise StorageError(f"no slot {rid.slot} on page {rid.page_id}")
        return self._read_slot(page, rid.slot)

    def fetch(self, rid: RowId) -> tuple[object, ...]:
        """Read one row by address."""
        page = self._pool.fetch_page(rid.page_id)
        try:
            offset, length, flags = self._slot_of(page, rid)
            if flags & FLAG_TOMBSTONE:
                raise StorageError(f"row {rid} was deleted")
            payload = page.read(offset, length)
        finally:
            self._pool.unpin_page(rid.page_id)
        return self._decode_row(payload, flags)

    def _decode_row(self, payload: bytes, flags: int) -> tuple[object, ...]:
        if flags & FLAG_OVERFLOW:
            payload = self._read_overflow_row(payload)
        return self._serde.deserialize(payload)

    def delete(self, rid: RowId) -> None:
        """Tombstone one row (space is not reclaimed)."""
        self._written()
        page = self._pool.fetch_page(rid.page_id)
        written = False
        try:
            offset, length, flags = self._slot_of(page, rid)
            self._write_slot(page, rid.slot, offset, length, flags | FLAG_TOMBSTONE)
            written = True
        finally:
            self._pool.unpin_page(rid.page_id, dirty=written)

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

    def scan_into(
        self,
        place: Callable[[tuple[object, ...]], np.ndarray],
        pages: list[PageId] | None = None,
    ) -> Iterator[tuple[object, ...]]:
        """Every live row, in physical order, with its trailing BLOB copied
        into an array the caller supplies: ``place(leading values)`` returns
        the destination, and the leading values are yielded once the BLOB
        is in it.

        The table's last column must be a BLOB and the others INT, DOUBLE
        or BOOL.  The destination must be writable, hold exactly the BLOB's
        bytes, and be 1-D or 2-D with contiguous rows (any row stride); the
        BLOB fills it row-major.  A chain chunk is copied once, from its
        pinned frame into the destination; ``place`` may run while that
        frame is pinned, but nothing is yielded while a page is.  Every page
        the scan reads is appended to ``pages`` if one is given.
        """
        head_size = self._serde.blob_head_size
        if head_size is None:
            raise StorageError(
                f"scan_into needs a trailing BLOB after INT, DOUBLE or BOOL "
                f"columns, not {self._serde.schema!r}"
            )
        for page_id, payloads in self._pages(self._live_payloads):
            if pages is not None:
                pages.append(page_id)
            for __, payload, flags in payloads:
                if flags & FLAG_OVERFLOW:
                    first_page_id, total_length, inline = self._overflow_ref(payload)
                else:
                    first_page_id, total_length, inline = INVALID_PAGE_ID, len(payload), payload
                sink = _Scatter(self._serde, place, min(head_size, total_length), total_length)
                sink(memoryview(inline), 0)
                self._copy_chain(first_page_id, total_length, len(inline), sink, pages)
                yield sink.values

    def _pages(self, read: Callable[[Page, int], object]) -> Iterator[tuple[PageId, object]]:
        """Fetch each page once and ``read(page, slot count)`` it while it
        is pinned; yields ``(page id, what read returned)`` after the unpin,
        so no view of a frame may survive in it."""
        page_id = self._first_page_id
        while page_id != INVALID_PAGE_ID:
            page = self._pool.fetch_page(page_id)
            try:
                slot_count, __, next_page = self._read_header(page)
                result = read(page, slot_count)
            finally:
                self._pool.unpin_page(page_id)
            yield page_id, result
            page_id = next_page

    def _scan(self) -> Iterator[tuple[PageId, list[int], Batch]]:
        """The scan loop: ``(page id, slots, the rows in those slots)``."""
        read = self._read_records if self._fixed_width else self._read_payloads
        for page_id, batches in self._pages(read):
            for slots, batch in batches:
                yield page_id, slots, batch

    def _live_payloads(self, page: Page, slot_count: int) -> list[tuple[int, bytes, int]]:
        """Copy every live slot's ``(slot, payload, flags)`` off the page."""
        slots = [self._read_slot(page, s) for s in range(slot_count)]
        return [
            (s, page.read(offset, length), flags)
            for s, (offset, length, flags) in enumerate(slots)
            if not flags & FLAG_TOMBSTONE
        ]

    def _read_payloads(self, page: Page, slot_count: int):
        """Row path: copy every live payload now, deserialize them later."""
        return self._payload_batches(self._live_payloads(page, slot_count))

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


class _Scatter:
    """The :meth:`HeapFile.scan_into` sink for one row.

    It gathers the record's first ``head_bytes`` bytes, decodes the head,
    asks ``place`` for the destination and then copies every later BLOB
    byte into it.  Chunk edges fall anywhere: inside the head, or inside a
    double or a destination row.
    """

    def __init__(self, serde: RowSerde, place, head_bytes: int, total_length: int):
        self._serde = serde
        self._place = place
        self._head = bytearray()
        self._head_bytes = head_bytes
        self._total_length = total_length
        self._rows: np.ndarray | None = None  # the destination's bytes, row by row
        self._blob_start = 0  # record offset of the BLOB's first byte
        self.values: tuple[object, ...] = ()

    def __call__(self, chunk: memoryview, at: int) -> None:
        if self._rows is None:
            take = self._head_bytes - len(self._head)
            self._head += chunk[:take]
            if len(self._head) < self._head_bytes:
                return
            self._open()
            chunk, at = chunk[take:], at + take
        if len(chunk):
            _scatter(self._rows, at - self._blob_start, np.frombuffer(chunk, np.uint8))

    def _open(self) -> None:
        self.values, start, length = self._serde.blob_head(self._head)
        if start + length != self._total_length:
            raise StorageError(
                f"a {self._total_length}-byte row holds a {start}-byte head and "
                f"a {length}-byte BLOB"
            )
        dst = self._place(self.values)
        if dst.nbytes != length:
            raise StorageError(
                f"a {length}-byte BLOB does not fill its {dst.nbytes}-byte destination"
            )
        rows = dst.view(np.uint8)
        self._rows = rows.reshape(1, -1) if rows.ndim == 1 else rows
        self._blob_start = start
        if len(self._head) > start:
            _scatter(self._rows, 0, np.frombuffer(self._head, np.uint8)[start:])


def _scatter(rows: np.ndarray, at: int, src: np.ndarray) -> None:
    """Copy bytes ``src`` into the 2-D byte array ``rows`` from flat
    (row-major) position ``at`` on: a partial first row, whole rows, a
    partial last row."""
    width = rows.shape[1]
    r, c = divmod(at, width)
    if c:
        head = src[: width - c]
        rows[r, c : c + len(head)] = head
        src, r = src[len(head) :], r + 1
    whole = len(src) // width
    if whole:
        rows[r : r + whole] = src[: whole * width].reshape(whole, width)
        src, r = src[whole * width :], r + whole
    if len(src):
        rows[r, : len(src)] = src
