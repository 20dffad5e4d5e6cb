"""Regression tests for heap-file pin accounting.

The original insert path double-unpinned when an overflow *reference*
itself forced a page append (triggered after a few thousand large-BLOB
inserts — exactly the relation-centric conv workload of Table 3).
"""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.relational import ColumnType, Schema
from repro.storage import BufferPool, HeapFile, InMemoryDiskManager, RowSerde

BLOB_SCHEMA = Schema.of(("id", ColumnType.INT), ("data", ColumnType.BLOB))


def test_many_overflow_inserts_fill_reference_pages():
    """Enough overflow refs to overflow the reference page several times."""
    pool = BufferPool(InMemoryDiskManager(4096), capacity_pages=8)
    heap = HeapFile(pool, RowSerde(BLOB_SCHEMA))
    blob = bytes(8192)  # every row takes the overflow path
    n = 800  # far more refs than one 4 KiB page holds
    rids = [heap.insert((i, blob)) for i in range(n)]
    assert pool.pinned_page_count() == 0
    assert heap.count() == n
    # Spot-check fetches across the whole range.
    for i in (0, n // 2, n - 1):
        assert heap.fetch(rids[i]) == (i, blob)


def test_interleaved_inline_and_overflow_inserts():
    pool = BufferPool(InMemoryDiskManager(4096), capacity_pages=8)
    heap = HeapFile(pool, RowSerde(BLOB_SCHEMA))
    expected = []
    rng = np.random.default_rng(0)
    for i in range(400):
        size = 16 if i % 3 else 8000
        blob = bytes(rng.integers(0, 256, size=size, dtype=np.uint8))
        heap.insert((i, blob))
        expected.append((i, blob))
    assert [row for __, row in heap.scan()] == expected
    assert pool.pinned_page_count() == 0


@pytest.mark.parametrize("slot", [-1, 3, 7])
def test_slot_outside_the_directory_is_refused(slot):
    """``delete`` used to tombstone a flag byte in free space, and ``fetch``
    to read slot -1 (the last slot) and call it deleted."""
    pool = BufferPool(InMemoryDiskManager(4096), capacity_pages=8)
    heap = HeapFile(pool, RowSerde(BLOB_SCHEMA))
    rids = [heap.insert((i, b"x" * 8)) for i in range(3)]
    page_id = rids[0].page_id
    heap.delete(rids[2])
    pool.flush_all()
    before = bytes(pool.fetch_page(page_id).data)
    pool.unpin_page(page_id)
    bad = type(rids[0])(page_id, slot)
    for op in (heap.delete, heap.fetch):
        with pytest.raises(StorageError, match=f"no slot {slot} on page {page_id}"):
            op(bad)
    page = pool.fetch_page(page_id)
    assert bytes(page.data) == before and not page.dirty
    pool.unpin_page(page_id)
    assert pool.pinned_page_count() == 0
    assert [row for __, row in heap.scan()] == [(0, b"x" * 8), (1, b"x" * 8)]
