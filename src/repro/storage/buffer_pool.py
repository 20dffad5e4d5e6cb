"""Buffer pool with pluggable eviction.

The buffer pool is the mechanism behind the paper's key Table 3 result:
relation-centric execution keeps only a bounded set of tensor-block pages in
memory and spills the rest, so operators whose tensors dwarf RAM still run.
The pool supports LRU and Clock replacement and exposes hit/miss/eviction
counters that the benchmarks report.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import BufferPoolError, StorageError
from ..faults import NULL_INJECTOR, FaultInjector
from ..telemetry.registry import NULL_REGISTRY, MetricsRegistry
from .disk import DiskManager
from .page import Page, PageId


@dataclass
class BufferPoolStats:
    """Counters exposed for benchmark reporting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_writebacks = 0


class EvictionPolicy:
    """Chooses a victim among unpinned resident pages."""

    def record_access(self, page_id: PageId) -> None:
        raise NotImplementedError

    def record_removal(self, page_id: PageId) -> None:
        raise NotImplementedError

    def choose_victim(self, pages: dict[PageId, Page]) -> PageId | None:
        """Return an unpinned page id to evict, or None if all are pinned."""
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


class BufferPool:
    """A fixed-capacity page cache over a :class:`DiskManager`."""

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
        # One coarse lock over frame management: pin/unpin, eviction, and
        # the replacement policy's bookkeeping must be atomic when the
        # serving front-end runs concurrent readers over one pool.
        self._lock = threading.RLock()
        self.stats = BufferPoolStats()
        self.set_metrics(metrics)

    def set_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Mirror the pool's counters into a telemetry registry.

        The pool holds direct references to its counters, so the per-access
        cost is one no-op call when telemetry is disabled.
        """
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_hits = registry.counter(
            "bufferpool_hits_total", "Page requests served from memory"
        )
        self._m_misses = registry.counter(
            "bufferpool_misses_total", "Page requests that went to disk"
        )
        self._m_evictions = registry.counter(
            "bufferpool_evictions_total", "Pages evicted to free a frame"
        )
        self._m_writebacks = registry.counter(
            "bufferpool_dirty_writebacks_total", "Dirty pages written back on eviction"
        )
        self._m_resident = registry.gauge(
            "bufferpool_resident_pages", "Pages currently held in frames"
        )

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

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
            self._pages[page_id] = page
            self._policy.record_access(page_id)
            self._m_resident.set(len(self._pages))
            return page

    def fetch_page(self, page_id: PageId) -> Page:
        """Return the page pinned; loads from disk on a miss."""
        with self._lock:
            page = self._pages.get(page_id)
            if page is not None:
                self.stats.hits += 1
                self._m_hits.inc()
                page.pin()
                self._policy.record_access(page_id)
                return page
            self.stats.misses += 1
            self._m_misses.inc()
            self._ensure_frame_available()
            page = Page(page_id, self._disk.page_size)
            page.data[:] = self._disk.read_page(page_id)
            page.pin()
            self._pages[page_id] = page
            self._policy.record_access(page_id)
            self._m_resident.set(len(self._pages))
            return page

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
            for page_id in self._pages:
                self._policy.record_removal(page_id)
            self._pages.clear()
            self._m_resident.set(0)

    def _ensure_frame_available(self) -> None:
        if len(self._pages) < self._capacity:
            return
        # Fault site fires before any state changes, so a raised fault
        # leaves the pool exactly as it was (the caller's page request
        # fails but every resident page stays valid).
        self._injector.fire("bufferpool.evict", resident=len(self._pages))
        victim_id = self._policy.choose_victim(self._pages)
        if victim_id is None:
            raise BufferPoolError(
                f"all {self._capacity} buffer frames are pinned; cannot evict"
            )
        victim = self._pages.pop(victim_id)
        self._policy.record_removal(victim_id)
        self.stats.evictions += 1
        self._m_evictions.inc()
        self._m_resident.set(len(self._pages))
        if victim.dirty:
            self._disk.write_page(victim_id, bytes(victim.data))
            self.stats.dirty_writebacks += 1
            self._m_writebacks.inc()

    def pinned_page_count(self) -> int:
        with self._lock:
            return sum(1 for p in self._pages.values() if p.pin_count > 0)
