"""Paged storage substrate: disk manager, buffer pool, heap files, catalog.

This package plays the role netsDB plays in the paper: a storage engine
whose buffer pool can spill tensor-block relations to disk, which is what
lets the relation-centric representation execute operators far larger than
memory (Table 3 of the paper).
"""

from .page import Page, PageId, INVALID_PAGE_ID
from .disk import DiskManager, InMemoryDiskManager, FileDiskManager
from .buffer_pool import (
    BufferPool,
    ClockPolicy,
    EvictionPolicy,
    LruPolicy,
    TwoQueuePolicy,
)
from .serde import RowSerde
from .heap import HeapFile, RowId
from .catalog import Catalog, TableInfo, VersionRecord

__all__ = [
    "Page",
    "PageId",
    "INVALID_PAGE_ID",
    "DiskManager",
    "InMemoryDiskManager",
    "FileDiskManager",
    "BufferPool",
    "EvictionPolicy",
    "LruPolicy",
    "ClockPolicy",
    "TwoQueuePolicy",
    "RowSerde",
    "HeapFile",
    "RowId",
    "Catalog",
    "TableInfo",
    "VersionRecord",
]
