"""Buffer pool with pluggable eviction.

The buffer pool is the mechanism behind the paper's key Table 3 result:
relation-centric execution keeps only a bounded set of tensor-block pages in
memory and spills the rest, so operators whose tensors dwarf RAM still run.
The pool supports LRU, Clock and 2Q replacement and counts page hits,
misses, evictions and dirty write-backs in registry counters;
``pool.stats`` reads them live for the benchmarks.

A frame holds a page or a share of a *resident block*: a decoded,
read-only compute block that the relation-centric engine multiplies on
(:meth:`BufferPool.put_block`).  A block is charged ``⌈bytes / page
size⌉`` frames and competes with pages under the same policy, so pages
and blocks together never take more than the pool's capacity.  A block is
derived data: making room for one evicts clean pages and other owners'
blocks only, never writing a dirty page back, and an owner's blocks never
evict each other (they are used together).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Iterable

import numpy as np

from ..errors import BufferPoolError, StorageError
from ..faults import NULL_INJECTOR, FaultInjector
from ..telemetry.registry import CounterView, MetricsRegistry
from .disk import DiskManager
from .page import Page, PageId


class EvictionPolicy:
    """Chooses a victim among unpinned resident frames.

    Keys are page ids or resident-block keys; ``choose_victim`` reads a
    mapping whose ``get(key)`` returns the frame's holder (anything with a
    ``pin_count``), or None for a key that may not be evicted now.
    """

    def record_access(self, page_id: PageId) -> None:
        raise NotImplementedError

    def record_removal(self, page_id: PageId) -> None:
        raise NotImplementedError

    def choose_victim(self, pages: dict[PageId, Page]) -> PageId | None:
        """Return an unpinned key to evict, or None if all are pinned."""
        raise NotImplementedError


class LruPolicy(EvictionPolicy):
    """Least-recently-used eviction."""

    def __init__(self) -> None:
        self._order: OrderedDict[PageId, None] = OrderedDict()

    def record_access(self, page_id: PageId) -> None:
        self._order.pop(page_id, None)
        self._order[page_id] = None

    def record_removal(self, page_id: PageId) -> None:
        self._order.pop(page_id, None)

    def choose_victim(self, pages: dict[PageId, Page]) -> PageId | None:
        for page_id in self._order:
            page = pages.get(page_id)
            if page is not None and page.pin_count == 0:
                return page_id
        return None


class ClockPolicy(EvictionPolicy):
    """Second-chance (clock) eviction."""

    def __init__(self) -> None:
        self._ref_bits: OrderedDict[PageId, bool] = OrderedDict()

    def record_access(self, page_id: PageId) -> None:
        if page_id not in self._ref_bits:
            self._ref_bits[page_id] = True
        else:
            self._ref_bits[page_id] = True

    def record_removal(self, page_id: PageId) -> None:
        self._ref_bits.pop(page_id, None)

    def choose_victim(self, pages: dict[PageId, Page]) -> PageId | None:
        # Sweep at most two full revolutions; clear reference bits as we go.
        candidates = list(self._ref_bits.keys())
        for _ in range(2):
            for page_id in candidates:
                page = pages.get(page_id)
                if page is None or page.pin_count > 0:
                    continue
                if self._ref_bits.get(page_id, False):
                    self._ref_bits[page_id] = False
                else:
                    return page_id
            candidates = list(self._ref_bits.keys())
        # Everything referenced once more: fall back to first unpinned.
        for page_id in candidates:
            page = pages.get(page_id)
            if page is not None and page.pin_count == 0:
                return page_id
        return None


class TwoQueuePolicy(EvictionPolicy):
    """Scan-resistant 2Q eviction (Johnson & Shasha, 1994, simplified).

    The paper's Sec. 5.1 notes that mixing tensor-block scans with
    relational working sets calls for a replacement policy beyond plain
    LRU: one relation-centric matmul sweeps thousands of block pages
    through the pool and, under LRU, flushes the hot relational pages.
    2Q parks first-touch pages in a FIFO probation queue (``A1``); only
    pages referenced *again* are promoted to the protected LRU (``Am``),
    so one-shot scan pages are evicted first and never displace the
    working set.
    """

    def __init__(self, probation_fraction: float = 0.25):
        if not 0.0 < probation_fraction < 1.0:
            raise BufferPoolError("probation_fraction must be in (0, 1)")
        self.probation_fraction = probation_fraction
        self._probation: OrderedDict[PageId, None] = OrderedDict()  # A1 (FIFO)
        self._protected: OrderedDict[PageId, None] = OrderedDict()  # Am (LRU)

    def record_access(self, page_id: PageId) -> None:
        if page_id in self._protected:
            self._protected.move_to_end(page_id)
        elif page_id in self._probation:
            # Second touch: promote out of probation.
            del self._probation[page_id]
            self._protected[page_id] = None
        else:
            self._probation[page_id] = None

    def record_removal(self, page_id: PageId) -> None:
        self._probation.pop(page_id, None)
        self._protected.pop(page_id, None)

    def choose_victim(self, pages: dict[PageId, Page]) -> PageId | None:
        total = len(self._probation) + len(self._protected)
        target_probation = max(1, int(total * self.probation_fraction))
        # Evict from probation first whenever it is at or over target —
        # this is what shields the protected set from scans.
        queues = (
            (self._probation, self._protected)
            if len(self._probation) >= target_probation
            else (self._protected, self._probation)
        )
        for queue in queues:
            for page_id in queue:
                page = pages.get(page_id)
                if page is not None and page.pin_count == 0:
                    return page_id
        return None


class ResidentBlock:
    """A compute block held in the pool: read-only, ``frames`` frames."""

    __slots__ = ("key", "array", "frames", "pin_count")

    def __init__(self, key: tuple, array: np.ndarray, frames: int):
        self.key = key
        self.array = array
        self.frames = frames
        self.pin_count = 0


class _Frames:
    """The policy's view of the pool: every page and block, or (for a
    block that needs room) clean pages and other owners' blocks."""

    __slots__ = ("_pages", "_blocks", "_clean_only", "spare")

    def __init__(self, pages: dict, blocks: dict, clean_only: bool):
        self._pages = pages
        self._blocks = blocks
        self._clean_only = clean_only
        self.spare: Hashable = None  # the owner whose blocks stay

    def get(self, key: Hashable):
        if isinstance(key, tuple):
            return None if key[0] == self.spare else self._blocks.get(key)
        page = self._pages.get(key)
        if page is not None and self._clean_only and page.dirty:
            return None
        return page


class BufferPool:
    """A fixed-capacity page and compute-block cache over a
    :class:`DiskManager`."""

    def __init__(
        self,
        disk: DiskManager,
        capacity_pages: int,
        policy: EvictionPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        injector: FaultInjector | None = None,
    ):
        if capacity_pages < 1:
            raise BufferPoolError("buffer pool needs capacity of at least one page")
        self._disk = disk
        self._capacity = capacity_pages
        self._injector = injector if injector is not None else NULL_INJECTOR
        self._policy = policy if policy is not None else LruPolicy()
        self._pages: dict[PageId, Page] = {}
        self._blocks: dict[tuple, ResidentBlock] = {}
        # A block key's first item names its owner (a heap), so a write to
        # the owner drops its blocks in one step.
        self._owners: dict[Hashable, set[tuple]] = {}
        self._used = 0  # frames held: one per page, its charge per block
        self._all_frames = _Frames(self._pages, self._blocks, clean_only=False)
        self._block_room = _Frames(self._pages, self._blocks, clean_only=True)
        # One coarse lock over frame management: pin/unpin, eviction, and
        # the replacement policy's bookkeeping must be atomic when the
        # serving front-end runs concurrent readers over one pool.
        self._lock = threading.RLock()
        registry = metrics if metrics is not None else MetricsRegistry()
        self._m_hits = registry.counter(
            "bufferpool_hits_total", "Page requests served from memory"
        )
        self._m_misses = registry.counter(
            "bufferpool_misses_total", "Page requests that went to disk"
        )
        self._m_evictions = registry.counter(
            "bufferpool_evictions_total", "Pages evicted to free a frame"
        )  # resident blocks evicted count here too
        self._m_writebacks = registry.counter(
            "bufferpool_dirty_writebacks_total", "Dirty pages written back on eviction"
        )
        self._m_resident = registry.gauge(
            "bufferpool_resident_pages", "Pages currently held in frames"
        )
        #: Live reads of the counters: ``stats.hits``, ``stats.misses``,
        #: ``stats.evictions``, ``stats.dirty_writebacks``, ``hit_rate``.
        self.stats = CounterView(
            hits=self._m_hits,
            misses=self._m_misses,
            evictions=self._m_evictions,
            dirty_writebacks=self._m_writebacks,
        )

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def resident_pages(self) -> int:
        """Frames in use: a page each, and each resident block's charge."""
        return self._used

    @property
    def resident_blocks(self) -> int:
        return len(self._blocks)

    @property
    def disk(self) -> DiskManager:
        return self._disk

    def new_page(self) -> Page:
        """Allocate a fresh page on disk and pin it in the pool."""
        with self._lock:
            page_id = self._disk.allocate_page()
            self._ensure_frame_available()
            page = Page(page_id, self._disk.page_size)
            page.pin()
            page.dirty = True  # must reach disk at least once
            self._add_page(page)
            return page

    def fetch_page(self, page_id: PageId) -> Page:
        """Return the page pinned; loads from disk on a miss."""
        with self._lock:
            page = self._pages.get(page_id)
            if page is not None:
                self._m_hits.inc()
                page.pin()
                self._policy.record_access(page_id)
                return page
            self._m_misses.inc()
            self._ensure_frame_available()
            page = Page(page_id, self._disk.page_size, self._disk.read_page(page_id))
            page.pin()
            self._add_page(page)
            return page

    def _add_page(self, page: Page) -> None:
        self._pages[page.page_id] = page
        self._policy.record_access(page.page_id)
        self._used += 1
        self._m_resident.set(self._used)

    def unpin_page(self, page_id: PageId, dirty: bool = False) -> None:
        with self._lock:
            page = self._pages.get(page_id)
            if page is None:
                raise StorageError(f"cannot unpin non-resident page {page_id}")
            page.unpin(dirty)

    def flush_page(self, page_id: PageId) -> None:
        with self._lock:
            page = self._pages.get(page_id)
            if page is None:
                return
            if page.dirty:
                self._disk.write_page(page_id, bytes(page.data))
                page.dirty = False

    def flush_all(self) -> None:
        with self._lock:
            for page_id in list(self._pages):
                self.flush_page(page_id)

    def discard_all(self) -> None:
        """Drop every frame without writing it back (the pool's owner is
        closing; flush first to keep dirty pages)."""
        with self._lock:
            for key in [*self._pages, *self._blocks]:
                self._policy.record_removal(key)
            self._pages.clear()
            self._blocks.clear()
            self._owners.clear()
            self._used = 0
            self._m_resident.set(0)

    def release_pages(self, page_ids: Iterable[PageId]) -> None:
        """Drop the given pages' frames where they are resident, clean and
        unpinned (their bytes are on disk; the next fetch reads them)."""
        with self._lock:
            for page_id in page_ids:
                page = self._pages.get(page_id)
                if page is not None and not page.dirty and page.pin_count == 0:
                    self._drop_page(page_id)
            self._m_resident.set(self._used)

    # -- resident compute blocks ---------------------------------------------

    def get_blocks(self, keys: list[tuple]) -> list[ResidentBlock] | None:
        """Every block under ``keys``, pinned, or None (nothing pinned) if
        any of them is not resident."""
        with self._lock:
            found = [self._blocks.get(key) for key in keys]
            if any(entry is None for entry in found):
                return None
            for entry in found:
                entry.pin_count += 1
                self._policy.record_access(entry.key)
            return found  # type: ignore[return-value]

    def put_block(self, key: tuple, array: np.ndarray) -> ResidentBlock | None:
        """Hold ``array`` under ``key``, read-only and pinned; the block
        already under ``key`` if there is one.  None (nothing held) when
        free frames, clean pages and other owners' blocks cannot make room
        for it: an owner's blocks never evict each other."""
        frames = max(1, -(-array.nbytes // self._disk.page_size))
        with self._lock:
            entry = self._blocks.get(key)
            if entry is None:
                self._block_room.spare = key[0]
                if frames > self._capacity or not self._make_room(frames, block=True):
                    return None
                array.flags.writeable = False
                entry = self._blocks[key] = ResidentBlock(key, array, frames)
                self._owners.setdefault(key[0], set()).add(key)
                self._used += frames
                self._m_resident.set(self._used)
            entry.pin_count += 1
            self._policy.record_access(key)
            return entry

    def unpin_blocks(self, entries: Iterable[ResidentBlock]) -> None:
        with self._lock:
            for entry in entries:
                if entry.pin_count <= 0:
                    raise BufferPoolError(f"block {entry.key} unpinned more times than pinned")
                entry.pin_count -= 1

    def drop_blocks(self, owner: Hashable) -> None:
        """Invalidate every block ``owner`` holds, pinned or not: none of
        them is returned again (a scan holding one keeps its array)."""
        if owner not in self._owners:  # the common case: a write, no blocks
            return
        with self._lock:
            for key in self._owners.pop(owner, ()):
                self._policy.record_removal(key)
                self._used -= self._blocks.pop(key).frames
            self._m_resident.set(self._used)

    # -- frame management ------------------------------------------------------

    def _ensure_frame_available(self) -> None:
        self._make_room(1, block=False)

    def _make_room(self, frames: int, block: bool) -> bool:
        """Evict until ``frames`` more fit.  A page that finds everything
        pinned raises; a block gets False."""
        while self._used + frames > self._capacity:
            # Fault site fires before any state changes, so a raised fault
            # leaves the pool exactly as it was (the caller's request fails
            # but every resident frame stays valid).
            self._injector.fire("bufferpool.evict", resident=self._used)
            victim = self._policy.choose_victim(
                self._block_room if block else self._all_frames  # type: ignore[arg-type]
            )
            if victim is None:
                if block:
                    return False
                raise BufferPoolError(
                    f"all {self._capacity} buffer frames are pinned; cannot evict"
                )
            self._m_evictions.inc()
            if isinstance(victim, tuple):
                self._policy.record_removal(victim)
                self._used -= self._blocks.pop(victim).frames
                owned = self._owners[victim[0]]
                owned.discard(victim)
                if not owned:
                    del self._owners[victim[0]]
            else:
                page = self._drop_page(victim)
                if page.dirty:
                    self._disk.write_page(victim, bytes(page.data))
                    self._m_writebacks.inc()
            self._m_resident.set(self._used)
        return True

    def _drop_page(self, page_id: PageId) -> Page:
        page = self._pages.pop(page_id)
        self._policy.record_removal(page_id)
        self._used -= 1
        return page

    def pinned_page_count(self) -> int:
        with self._lock:
            return sum(1 for p in self._pages.values() if p.pin_count > 0)
