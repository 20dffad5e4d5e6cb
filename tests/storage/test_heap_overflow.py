"""Overflow rows: whole chain pages plus an inline remainder.

A record longer than an empty page's slot space keeps its first
``len % chunk_capacity`` bytes in its slot, after the chain reference, and
the rest in full overflow chunks; only a remainder too long for the slot
takes one last, partial chain page.  Slots that hold only the reference (the
layout every overflow row had before inline remainders) read through the
same decoder.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.relational import ColumnType, Schema
from repro.storage import BufferPool, HeapFile, InMemoryDiskManager, RowSerde
from repro.storage.page import INVALID_PAGE_ID
from repro.tensor.blocked import block_table_schema

PAGE_SIZE = 512
CHUNK = PAGE_SIZE - 12  # page minus (u32 chunk length, i64 next page)
SLOT_SPACE = PAGE_SIZE - 14 - 9  # empty page minus header and one slot
REF = 12  # (i64 first overflow page, u32 total length)
SCHEMA = Schema.of(("id", ColumnType.INT), ("data", ColumnType.BLOB))
ROW_OVERHEAD = 1 + 8 + 4  # null bitmap, id, BLOB length prefix
CHAIN_HEADER = struct.Struct("<Iq")


def make_heap(page_size=PAGE_SIZE, capacity=4, schema=SCHEMA):
    pool = BufferPool(InMemoryDiskManager(page_size), capacity_pages=capacity)
    return HeapFile(pool, RowSerde(schema)), pool


def chain_pages(record_length, page_size=PAGE_SIZE):
    """Overflow pages one record of ``record_length`` bytes should take."""
    chunk, slot_space = page_size - 12, page_size - 23
    if record_length <= slot_space:
        return 0
    remainder = record_length % chunk
    return record_length // chunk + (REF + remainder > slot_space)


def heap_page_count(heap, pool):
    page_id, count = heap.first_page_id, 0
    while page_id != INVALID_PAGE_ID:
        page = pool.fetch_page(page_id)
        __, __, next_page = struct.unpack_from("<HIq", page.data)
        pool.unpin_page(page_id)
        page_id, count = next_page, count + 1
    return count


# Record lengths around every layout boundary: k whole chunks (±1, ±REF),
# the largest remainder that still fits the slot, and an empty page's slot
# space.
_BOUNDARIES = sorted(
    {
        length
        for k in range(4)
        for base in (k * CHUNK, k * CHUNK + SLOT_SPACE - REF, SLOT_SPACE)
        for delta in (-REF - 1, -REF, -1, 0, 1, REF, REF + 1)
        if (length := base + delta) >= ROW_OVERHEAD
    }
)
_record_lengths = st.one_of(
    st.sampled_from(_BOUNDARIES), st.integers(ROW_OVERHEAD, 4 * CHUNK)
)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("insert"), _record_lengths),
            st.tuples(st.just("delete"), st.integers(0, 10**6)),
        ),
        min_size=1,
        max_size=25,
    ),
    capacity=st.sampled_from([2, 4, 64]),
)
def test_overflow_layout_round_trips(ops, capacity):
    heap, pool = make_heap(capacity=capacity)
    live, expected_chain = {}, 0
    for i, (op, arg) in enumerate(ops):
        if op == "insert":
            row = (i, np.random.default_rng(i).bytes(arg - ROW_OVERHEAD))
            assert len(heap.serde.serialize(row)) == arg
            live[heap.insert(row)] = row
            expected_chain += chain_pages(arg)
        elif live:
            rid = sorted(live)[arg % len(live)]
            heap.delete(rid)
            del live[rid]
    scanned = list(heap.scan())
    assert scanned == sorted(live.items())
    assert [row for batch in heap.scan_batches() for row in batch.rows()] == [
        row for __, row in scanned
    ]
    assert all(heap.fetch(rid) == row for rid, row in scanned)
    assert pool.disk.num_pages == heap_page_count(heap, pool) + expected_chain
    assert pool.pinned_page_count() == 0


def test_default_block_takes_two_chain_pages():
    """A 128×128 float64 block row on 64 KiB pages: 2 chain pages, not 3."""
    page_size, n = 64 * 1024, 5
    heap, pool = make_heap(page_size, capacity=4, schema=block_table_schema())
    rng = np.random.default_rng(0)
    rows = [(i, 0, 128, 128, rng.normal(size=(128, 128)).tobytes()) for i in range(n)]
    assert len(heap.serde.serialize(rows[0])) == 131_109
    rids = [heap.insert(row) for row in rows]
    assert heap_page_count(heap, pool) == 1
    assert pool.disk.num_pages == 1 + 2 * n
    assert [heap.fetch(rid) for rid in rids] == rows
    assert [row for __, row in heap.scan()] == rows


def insert_reference_only(heap, pool, row):
    """Insert ``row`` as an overflow row whose slot holds only the chain
    reference and whose chain holds every byte: the layout files written
    before inline remainders have."""
    payload = heap.serde.serialize(row)
    chunk = pool.disk.page_size - CHAIN_HEADER.size
    page_ids = []
    for __ in range(0, len(payload), chunk):
        page_ids.append(pool.new_page().page_id)
        pool.unpin_page(page_ids[-1], dirty=True)
    for i, page_id in enumerate(page_ids):
        page = pool.fetch_page(page_id)
        piece = payload[i * chunk : (i + 1) * chunk]
        next_page = page_ids[i + 1] if i + 1 < len(page_ids) else INVALID_PAGE_ID
        page.write(0, CHAIN_HEADER.pack(len(piece), next_page) + piece)
        pool.unpin_page(page_id, dirty=True)
    # Claim a slot with an inline row of the same head and an empty BLOB
    # (13 bytes for (id, data)), then turn it into a 12-byte reference
    # slot: (u32 offset, u32 length, u8 flags = FLAG_OVERFLOW).
    rid = heap.insert(row[:-1] + (b"",))
    page = pool.fetch_page(rid.page_id)
    slot_offset = 14 + rid.slot * 9
    offset, __, __ = struct.unpack_from("<IIB", page.data, slot_offset)
    page.write(offset, struct.pack("<qI", page_ids[0], len(payload)))
    page.write(slot_offset, struct.pack("<IIB", offset, REF, 0x2))
    pool.unpin_page(rid.page_id, dirty=True)
    return rid


@pytest.mark.parametrize("capacity", [3, 64])
def test_reference_only_overflow_rows_still_read(capacity):
    heap, pool = make_heap(capacity=capacity)
    lengths = [SLOT_SPACE + 1, CHUNK, CHUNK + 1, 2 * CHUNK + 100, 3 * CHUNK - 1]
    rows, rids = [], []
    for i, length in enumerate(lengths):
        row = (i, np.random.default_rng(i).bytes(length - ROW_OVERHEAD))
        rids.append(insert_reference_only(heap, pool, row))
        rows.append(row)
        rows.append((100 + i, b"inline"))
        rids.append(heap.insert(rows[-1]))
    assert [heap.fetch(rid) for rid in rids] == rows
    assert [row for __, row in heap.scan()] == rows
    assert [row for batch in heap.scan_batches() for row in batch.rows()] == rows
    # The old and the new layout side by side in one table.
    new_row = (99, bytes(2 * CHUNK + 100 - ROW_OVERHEAD))
    new_rid = heap.insert(new_row)
    assert heap.fetch(new_rid) == new_row
    assert [row for __, row in heap.scan()] == rows + [new_row]


def corrupted_chain(mutate):
    """A 4 096-byte-page heap holding one 20 013-byte overflow row (4 whole
    chunks on pages 1–4, a 3 677-byte inline remainder), with the chunk
    header of chain page ``k`` rewritten on disk by ``mutate(k, length,
    next_page)``."""
    disk = InMemoryDiskManager(4096)
    pool = BufferPool(disk, capacity_pages=8)
    heap = HeapFile(pool, RowSerde(SCHEMA))
    rid = heap.insert((1, bytes(20_000)))
    assert disk.num_pages == 5
    pool.flush_all()
    pool.discard_all()
    for page_id in range(1, 5):
        data = bytearray(disk.read_page(page_id))
        length, next_page = CHAIN_HEADER.unpack_from(data)
        length, next_page = mutate(page_id, length, next_page)
        CHAIN_HEADER.pack_into(data, 0, length, next_page)
        disk.write_page(page_id, bytes(data))
    return heap, pool, rid


def read_by_fetch(heap, rid):
    return heap.fetch(rid)


def read_by_scatter(heap, rid):
    """The one-copy read: every row's BLOB into a fresh byte array."""
    blobs = []

    def place(values):
        blobs.append(np.empty(20_000, np.uint8))
        return blobs[-1]

    return list(heap.scan_into(place))


# Both read paths walk a chain with one decoder, so they report the same.
READS = pytest.mark.parametrize("read", [read_by_fetch, read_by_scatter], ids=["fetch", "scan_into"])


@READS
def test_chunk_claiming_more_than_remains_is_reported(read):
    heap, pool, rid = corrupted_chain(
        lambda k, length, nxt: (length + 100 if k == 4 else length, nxt)
    )
    with pytest.raises(StorageError) as err:
        read(heap, rid)
    message = str(err.value)
    assert "from page 1" in message and "corrupt" in message
    assert "page 4 claims a 4184-byte chunk" in message
    assert "expected 20013 bytes, read 15929" in message
    with pytest.raises(StorageError, match="expected 20013 bytes, read 15929"):
        list(heap.scan())
    assert pool.pinned_page_count() == 0


@READS
def test_chain_ending_early_is_reported(read):
    heap, pool, rid = corrupted_chain(
        lambda k, length, nxt: (length, INVALID_PAGE_ID if k == 3 else nxt)
    )
    with pytest.raises(StorageError) as err:
        read(heap, rid)
    message = str(err.value)
    assert "from page 1 ends early" in message
    assert "expected 20013 bytes, read 15929" in message
    assert pool.pinned_page_count() == 0


@READS
def test_slot_longer_than_its_row_is_reported(read):
    heap, pool, rid = corrupted_chain(lambda k, length, nxt: (length, nxt))
    data = bytearray(pool.disk.read_page(rid.page_id))
    offset, __, __ = struct.unpack_from("<IIB", data, 14 + rid.slot * 9)
    struct.pack_into("<qI", data, offset, 1, 100)  # total length 100 bytes
    pool.disk.write_page(rid.page_id, bytes(data))
    with pytest.raises(StorageError) as err:
        read(heap, rid)
    message = str(err.value)
    assert "from page 1 is corrupt" in message
    assert "holds 3677 inline bytes; expected 100 bytes in all" in message


# -- the one-copy read: scan_into ------------------------------------------

BLOCK_HEAD = 1 + 4 * 8 + 4  # bitmap, four INTs, BLOB length prefix
SENTINEL = 0xA5


def scattered(heap):
    """``scan_into`` every row into a strided sub-view of a larger,
    sentinel-filled array; returns ``(values, destination, backing array)``
    per row."""
    out = []

    def place(values):
        __, __, nrows, ncols = values
        backing = np.full((nrows + 3, 8 * (ncols + 2)), SENTINEL, np.uint8)
        dst = backing[1 : 1 + nrows, 8 : 8 * (1 + ncols)].view(np.float64)
        out.append((values, dst, backing))
        return dst

    yielded = list(heap.scan_into(place))
    assert yielded == [values for values, __, __ in out]
    return out


def untouched(backing, dst):
    """Whether every byte of ``backing`` outside ``dst`` is still the
    sentinel."""
    mask = np.ones(backing.shape, bool)
    nrows, ncols = dst.shape
    mask[1 : 1 + nrows, 8 : 8 * (1 + ncols)] = False
    return bool((backing[mask] == SENTINEL).all())


# Block shapes whose records straddle every layout edge on 512-byte pages:
# inline rows, a remainder shorter than the 37-byte head (the head split
# between slot and chain), and several chain pages.
_block_dims = st.tuples(st.integers(0, 24), st.integers(0, 24))


@settings(max_examples=80, deadline=None)
@given(
    blocks=st.lists(st.tuples(_block_dims, st.booleans()), min_size=1, max_size=8),
    capacity=st.sampled_from([2, 4, 64]),
)
def test_scan_into_scatters_what_scan_reads(blocks, capacity):
    """The oracle: ``scan_into``'s bytes equal ``scan()``'s, for inline rows,
    reference-only slots (the head in the chain) and chunk edges that split
    a double, and the destination's neighbours stay untouched."""
    heap, pool = make_heap(capacity=capacity, schema=block_table_schema())
    for i, ((nrows, ncols), reference_only) in enumerate(blocks):
        data = np.random.default_rng(i).bytes(8 * nrows * ncols)
        row = (i, 0, nrows, ncols, data)
        record = len(heap.serde.serialize(row))
        if reference_only and record > SLOT_SPACE:
            insert_reference_only(heap, pool, row)
        else:
            heap.insert(row)
    expected = [row for __, row in heap.scan()]
    got = scattered(heap)
    assert [values for values, __, __ in got] == [row[:4] for row in expected]
    for (__, dst, backing), row in zip(got, expected):
        assert dst.tobytes() == row[4]
        assert untouched(backing, dst)
    assert pool.pinned_page_count() == 0


def test_scan_into_covers_every_head_position():
    """Deterministic corners of the oracle above: the head wholly in the
    slot, split between slot and first chain page, and wholly in the chain,
    each with a double split across a chunk edge."""
    heap, pool = make_heap(capacity=3, schema=block_table_schema())
    # 8·n·m + 37 bytes: a remainder (mod 500) of 41 bytes (the head in the
    # slot, then half a double), of 21 (the head split between slot and
    # chain) and a reference-only slot (the head in the chain).
    rows = [
        (k, 0, n, m, np.random.default_rng(k).bytes(8 * n * m))
        for k, (n, m) in enumerate([(3, 21), (3, 41), (7, 9)])
    ]
    remainders = [len(heap.serde.serialize(row)) % CHUNK for row in rows]
    assert remainders[0] >= BLOCK_HEAD > remainders[1] > 0
    for row in rows[:2]:
        heap.insert(row)
    insert_reference_only(heap, pool, rows[2])
    got = scattered(heap)
    for (values, dst, backing), row in zip(got, rows):
        assert values == row[:4] and dst.tobytes() == row[4]
        assert untouched(backing, dst)
    assert pool.pinned_page_count() == 0


def test_scan_into_reads_a_head_shortened_by_nulls():
    """A NULL leading value takes no bytes, so the first bytes gathered for
    the longest head already belong to the BLOB."""
    heap, pool = make_heap()
    rows = [
        (None if i % 2 else i, np.random.default_rng(i).bytes(length))
        for i, length in enumerate([0, 3, 8, 11, SLOT_SPACE, CHUNK + 5, 3 * CHUNK])
    ]
    for row in rows:
        heap.insert(row)
    lengths = iter(len(blob) for __, blob in rows)
    blobs = []

    def place(values):
        blobs.append(np.empty(next(lengths), np.uint8))
        return blobs[-1]

    assert list(heap.scan_into(place)) == [(i,) for i, __ in rows]
    assert [blob.tobytes() for blob in blobs] == [blob for __, blob in rows]
    assert pool.pinned_page_count() == 0


def test_scan_into_refuses_a_wrong_destination():
    heap, pool = make_heap(schema=block_table_schema())
    heap.insert((0, 0, 4, 4, bytes(128)))
    with pytest.raises(StorageError, match="128-byte BLOB does not fill its 120-byte"):
        list(heap.scan_into(lambda values: np.empty(15)))
    plain, __ = make_heap(schema=Schema.of(("name", ColumnType.TEXT), ("data", ColumnType.BLOB)))
    with pytest.raises(StorageError, match="scan_into needs a trailing BLOB"):
        list(plain.scan_into(lambda values: np.empty(0)))
    assert pool.pinned_page_count() == 0


def chain_heap(disk, rows=3):
    """Three 20 013-byte overflow rows on 4 096-byte pages."""
    pool = BufferPool(disk, capacity_pages=8)
    heap = HeapFile(pool, RowSerde(SCHEMA))
    for i in range(rows):
        heap.insert((i, bytes([i]) * 20_000))
    pool.flush_all()
    pool.discard_all()
    return heap, pool


def test_scan_into_leaves_no_pins_full_abandoned_or_faulted():
    class FaultyDisk(InMemoryDiskManager):
        fail_at = None

        def read_page(self, page_id):
            if page_id == self.fail_at:
                raise StorageError(f"injected read fault on page {page_id}")
            return super().read_page(page_id)

    def place(values):
        return np.empty(20_000, np.uint8)

    disk = FaultyDisk(4096)
    heap, pool = chain_heap(disk)
    assert [values for values in heap.scan_into(place)] == [(0,), (1,), (2,)]
    assert pool.pinned_page_count() == 0

    # Abandoned after the first row, with the second row's chain unread.
    pool.discard_all()
    rows = heap.scan_into(place)
    assert next(rows) == (0,)
    rows.close()
    assert pool.pinned_page_count() == 0

    # A read fault in the middle of the second row's chain.
    pool.discard_all()
    disk.fail_at = 7
    with pytest.raises(StorageError, match="injected read fault on page 7"):
        list(heap.scan_into(place))
    assert pool.pinned_page_count() == 0
