"""The heap's page decoder: columnar for fixed-width rows, per row otherwise.

``scan()``, ``scan_batches()`` and ``fetch()`` must agree value for value
and type for type (floats bit for bit) over any mix of NULLs, tombstones,
updates and overflow rows, and no scan — finished, abandoned, or killed by
a disk fault — may leave a page pinned.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InjectedFaultError, StorageError
from repro.faults import FaultInjector
from repro.relational import ColumnType, Schema
from repro.storage import BufferPool, HeapFile, InMemoryDiskManager, RowSerde

PAGE_SIZE = 4096
INT64_MAX = 2**63 - 1
FIXED = [ColumnType.INT, ColumnType.DOUBLE, ColumnType.BOOL]
VARIABLE = [ColumnType.TEXT, ColumnType.BLOB]

_VALUES = {
    ColumnType.INT: st.one_of(
        st.sampled_from([INT64_MAX, -INT64_MAX, -(2**63), 0]),
        st.integers(-(2**63), INT64_MAX),
    ),
    ColumnType.DOUBLE: st.one_of(
        st.sampled_from([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf]),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    ColumnType.BOOL: st.booleans(),
    ColumnType.TEXT: st.text(max_size=30),
    # Some BLOBs are larger than a page and go to an overflow chain.
    ColumnType.BLOB: st.one_of(
        st.binary(max_size=30),
        st.integers(PAGE_SIZE + 1, 3 * PAGE_SIZE).map(lambda n: bytes([n % 251]) * n),
    ),
}


def exact(row):
    """A row key that tells -0.0 from 0.0, NaN payloads apart, 1 from True."""
    return tuple(
        (type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in row
    )


@st.composite
def tables(draw):
    types = draw(st.lists(st.sampled_from(FIXED), min_size=1, max_size=6))
    if draw(st.booleans()):
        types += draw(st.lists(st.sampled_from(VARIABLE), min_size=1, max_size=2))
    types = draw(st.permutations(types))
    nulls = draw(st.sampled_from([0.0, 0.05, 0.5]))

    def cell(ctype):
        value = _VALUES[ctype]
        if not nulls:
            return value
        return st.floats(0, 1).flatmap(lambda u: st.none() if u < nulls else value)

    rows = draw(st.lists(st.tuples(*[cell(t) for t in types]), max_size=150))
    edits = draw(
        st.lists(st.tuples(st.sampled_from(["delete", "update"]), st.integers(0, 10**6)),
                 max_size=25)
    )
    schema = Schema.of(*[(f"c{i}", t) for i, t in enumerate(types)])
    return schema, rows, edits


def make_heap(schema, capacity=8, injector=None):
    disk = InMemoryDiskManager(PAGE_SIZE, injector=injector)
    pool = BufferPool(disk, capacity_pages=capacity)
    return HeapFile(pool, RowSerde(schema)), pool


def load(heap, rows, edits):
    """Insert ``rows``, apply the edits; returns ``{rid: row}`` of live rows."""
    live = {heap.insert(row): row for row in rows}
    for kind, pick in edits:
        if not live:
            break
        rid = sorted(live)[pick % len(live)]
        row = live.pop(rid)
        heap.delete(rid)
        if kind == "update":  # slotted pages update as delete + re-insert
            live[heap.insert(row)] = row
    return live


@settings(max_examples=80, deadline=None)
@given(tables())
def test_scan_matches_fetch_and_what_was_written(table):
    schema, rows, edits = table
    heap, pool = make_heap(schema)
    live = load(heap, rows, edits)
    scanned = list(heap.scan())
    assert sorted(rid for rid, __ in scanned) == sorted(live)
    assert [exact(row) for __, row in scanned] == [
        exact(heap.fetch(rid)) for rid, __ in scanned
    ]
    assert [exact(row) for __, row in scanned] == [exact(live[rid]) for rid, __ in scanned]
    assert pool.pinned_page_count() == 0


@settings(max_examples=80, deadline=None)
@given(tables())
def test_flattened_batches_equal_scan(table):
    schema, rows, edits = table
    heap, pool = make_heap(schema)
    load(heap, rows, edits)
    batches = list(heap.scan_batches())
    assert all(len(batch) > 0 for batch in batches)
    flattened = [row for batch in batches for row in batch.rows()]
    assert [exact(r) for r in flattened] == [exact(r) for __, r in heap.scan()]
    assert pool.pinned_page_count() == 0


@settings(max_examples=40, deadline=None)
@given(tables(), st.integers(0, 50))
def test_abandoned_scan_leaves_no_pins(table, stop):
    schema, rows, edits = table
    heap, pool = make_heap(schema)
    load(heap, rows, edits)
    for scan in (heap.scan(), heap.scan_batches()):
        for i, __ in enumerate(scan):
            if i >= stop:
                break
        del scan
        assert pool.pinned_page_count() == 0


@settings(max_examples=40, deadline=None)
@given(tables(), st.integers(1, 6))
def test_read_fault_mid_scan_raises_typed_error_and_unpins(table, nth):
    schema, rows, edits = table
    injector = FaultInjector(seed=3)
    heap, pool = make_heap(schema, capacity=4, injector=injector)
    live = load(heap, rows, edits)
    pool.flush_all()
    # Push the table's pages out of the 4-frame pool so the scan reads disk.
    for __ in range(4):
        pool.unpin_page(pool.new_page().page_id)
    injector.arm(site="disk.read_page", nth=nth)
    try:
        count = sum(1 for __ in heap.scan())
    except InjectedFaultError:
        pass
    else:  # the scan read fewer than ``nth`` pages from disk
        assert count == len(live)
    assert pool.pinned_page_count() == 0
    injector.disarm()
    assert sum(1 for __ in heap.scan()) == len(live)


def test_read_fault_mid_columnar_scan():
    schema = Schema.of(("id", ColumnType.INT), ("x", ColumnType.DOUBLE))
    injector = FaultInjector(seed=3)
    heap, pool = make_heap(schema, capacity=4, injector=injector)
    for i in range(3000):  # about 12 pages
        heap.insert((i, float(i)))
    pool.flush_all()
    injector.arm(site="disk.read_page", nth=3)
    scan = heap.scan_batches()
    next(scan)
    with pytest.raises(InjectedFaultError):
        list(scan)
    assert pool.pinned_page_count() == 0


def test_fixed_width_rows_skip_per_row_deserialize():
    schema = Schema.of(("id", ColumnType.INT), ("x", ColumnType.DOUBLE),
                       ("ok", ColumnType.BOOL))
    heap, __ = make_heap(schema)
    rows = [(i, i / 3, i % 2 == 0) for i in range(500)]
    rows[7] = (7, None, True)  # NULLs take the per-row decoder
    rows[300] = (None, 1.0, False)
    for row in rows:
        heap.insert(row)
    calls = []
    serde = heap.serde
    original = serde.deserialize
    serde.deserialize = lambda data: calls.append(data) or original(data)
    assert [r for __, r in heap.scan()] == rows
    assert [r for b in heap.scan_batches() for r in b.rows()] == rows
    assert len(calls) == 4  # two NULL rows, two scans


def test_text_tables_keep_the_row_decoder():
    schema = Schema.of(("id", ColumnType.INT), ("name", ColumnType.TEXT))
    heap, __ = make_heap(schema)
    for i in range(300):
        heap.insert((i, f"n{i}"))
    assert heap.serde.record_dtype is None
    batches = list(heap.scan_batches())
    assert [r for b in batches for r in b.rows()] == [(i, f"n{i}") for i in range(300)]


def test_each_overflow_row_is_its_own_batch():
    schema = Schema.of(("id", ColumnType.INT), ("data", ColumnType.BLOB))
    heap, __ = make_heap(schema)
    heap.insert((0, b"a"))
    heap.insert((1, bytes(3 * PAGE_SIZE)))
    heap.insert((2, b"b"))
    assert [len(b) for b in heap.scan_batches()] == [1, 1, 1]


def test_record_length_mismatch_raises_the_serde_error():
    schema = Schema.of(("id", ColumnType.INT), ("x", ColumnType.DOUBLE))
    heap, pool = make_heap(schema)
    rids = [heap.insert((i, float(i))) for i in range(5)]
    page = pool.fetch_page(rids[1].page_id)
    offset, length, flags = HeapFile._read_slot(page, rids[1].slot)
    HeapFile._write_slot(page, rids[1].slot, offset, length + 1, flags)
    pool.unpin_page(page.page_id, dirty=True)
    with pytest.raises(StorageError, match="trailing bytes") as from_fetch:
        heap.fetch(rids[1])
    with pytest.raises(StorageError, match="trailing bytes") as from_scan:
        list(heap.scan())
    assert str(from_scan.value) == str(from_fetch.value)
    assert pool.pinned_page_count() == 0


def test_null_bit_on_a_full_length_record_goes_through_serde():
    # A record whose bitmap claims a NULL cannot also be full length; the
    # decoder must hand it to the serde (which rejects it), not decode it.
    schema = Schema.of(("id", ColumnType.INT), ("x", ColumnType.DOUBLE))
    heap, pool = make_heap(schema)
    rids = [heap.insert((i, float(i))) for i in range(5)]
    page = pool.fetch_page(rids[2].page_id)
    offset, __, __ = HeapFile._read_slot(page, rids[2].slot)
    page.write(offset, b"\x02")  # mark column x NULL
    pool.unpin_page(page.page_id, dirty=True)
    with pytest.raises(StorageError, match="trailing bytes") as from_fetch:
        heap.fetch(rids[2])
    with pytest.raises(StorageError, match="trailing bytes") as from_scan:
        list(heap.scan_batches())
    assert str(from_scan.value) == str(from_fetch.value)
