"""Inference-result caching backed by RDBMS-resident ANN indexing
(Sec. 5.1 / Sec. 7.2.2).

The cache keeps a table of ``(feature vector, prediction)`` pairs and a
nearest-neighbour index over the features.  Serving a query batch:

1. probe the index per query; any neighbour within ``distance_threshold``
   is a *hit* — return its cached prediction without touching the model;
2. run the model once over the concatenated misses;
3. insert the fresh (features, prediction) pairs into the table and index.

The threshold trades accuracy for latency — the trade the paper measures
(10.3× speedup at 98.75% → 93.65% accuracy for the CNN).  The optional
``catalog`` persists cache entries to a heap table, making the cache an
ordinary relation the RDBMS can manage, index, and evict.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..dlruntime.layers import Model
from ..errors import AnnIndexError, InjectedFaultError
from ..faults import NULL_INJECTOR, FaultInjector
from ..indexes.base import VectorIndex
from ..relational.schema import ColumnType, Schema
from ..storage.catalog import Catalog, TableInfo
from ..telemetry.registry import CounterView, MetricsRegistry


@dataclass
class CacheServeReport:
    """Accounting for one :meth:`InferenceResultCache.serve` call."""

    hits: int
    misses: int
    model_seconds: float
    lookup_seconds: float

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _ResultCache:
    """What the exact and ANN caches share: the model, the fault site,
    the registry counters (read live through ``stats``), and the
    per-batch bookkeeping that ends every ``serve``."""

    def __init__(
        self,
        model: Model,
        kind: str,
        metrics: MetricsRegistry | None,
        injector: FaultInjector | None,
        recorder,
    ):
        self.model = model
        self._kind = kind
        self._injector = injector if injector is not None else NULL_INJECTOR
        self._recorder = recorder
        registry = metrics if metrics is not None else MetricsRegistry()
        labels = {"model": model.name, "kind": kind}
        self._m_hits = registry.counter(
            "result_cache_hits_total", "Queries answered from the cache", **labels
        )
        self._m_misses = registry.counter(
            "result_cache_misses_total", "Queries that ran the model", **labels
        )
        self._m_inserts = registry.counter(
            "result_cache_inserts_total", "Entries inserted into the cache", **labels
        )
        self._m_lookup_seconds = registry.histogram(
            "result_cache_lookup_seconds", "Per-batch cache probe time", **labels
        )
        self._m_model_seconds = registry.histogram(
            "result_cache_model_seconds", "Per-batch model time on misses", **labels
        )
        #: Lifetime reads: ``hits``, ``misses``, ``inserts``, ``hit_rate``,
        #: ``lookup_seconds`` and ``model_seconds`` (histogram sums).
        self.stats = CounterView(
            hits=self._m_hits,
            misses=self._m_misses,
            inserts=self._m_inserts,
            lookup_seconds=self._m_lookup_seconds,
            model_seconds=self._m_model_seconds,
        )

    def _account(
        self,
        hits: int,
        misses: int,
        lookup_seconds: float,
        model_seconds: float,
        degraded: bool,
    ) -> CacheServeReport:
        """Count one served batch, emit its ``cache.*`` event, report it."""
        if degraded:
            self._injector.record_recovery("result_cache.lookup")
        self._m_hits.inc(hits)
        self._m_misses.inc(misses)
        self._m_lookup_seconds.observe(lookup_seconds)
        if misses:
            self._m_model_seconds.observe(model_seconds)
        if self._recorder is not None:
            self._recorder.emit(
                "cache.hit" if hits >= misses else "cache.miss",
                model=self.model.name,
                cache=self._kind,
                hits=hits,
                misses=misses,
                degraded=degraded,
            )
        return CacheServeReport(
            hits=hits,
            misses=misses,
            model_seconds=model_seconds,
            lookup_seconds=lookup_seconds,
        )


class InferenceResultCache(_ResultCache):
    """An ANN-indexed cache in front of a model.

    Thread-safe: lookup, model execution on misses, and insertion run
    under one reentrant lock, so the serving front-end's worker pool can
    share a single cache without racing the index against the
    ``_predictions`` map (an unlocked interleaving can index a vector
    whose prediction is not yet recorded, or double-run the model).
    """

    CACHE_SCHEMA = Schema.of(
        ("entry_id", ColumnType.INT),
        ("features", ColumnType.BLOB),
        ("prediction", ColumnType.INT),
    )

    def __init__(
        self,
        model: Model,
        index: VectorIndex,
        distance_threshold: float,
        catalog: Catalog | None = None,
        table_name: str | None = None,
        insert_on_miss: bool = True,
        metrics: MetricsRegistry | None = None,
        injector: FaultInjector | None = None,
        recorder=None,
    ):
        super().__init__(model, "ann", metrics, injector, recorder)
        self.index = index
        self.distance_threshold = float(distance_threshold)
        self.insert_on_miss = insert_on_miss
        self._predictions: dict[int, int] = {}
        self._next_id = 0
        self._lock = threading.RLock()
        self._table: TableInfo | None = None
        if catalog is not None:
            name = table_name or f"__cache_{model.name}"
            self._table = catalog.create_table(name, self.CACHE_SCHEMA)

    @property
    def table(self) -> TableInfo | None:
        return self._table

    def __len__(self) -> int:
        return len(self._predictions)

    # -- population --------------------------------------------------------

    def warm(self, features: np.ndarray) -> None:
        """Precompute and cache predictions for a set of inputs."""
        flat = _flatten(features)
        predictions = self.model.predict(features)
        with self._lock:
            self._insert(flat, predictions)

    def _insert(self, flat: np.ndarray, predictions: np.ndarray) -> None:
        # Callers hold self._lock.
        ids = np.arange(self._next_id, self._next_id + flat.shape[0], dtype=np.int64)
        self._next_id += flat.shape[0]
        self.index.add(flat, ids)
        for vid, pred, vector in zip(ids, predictions, flat):
            self._predictions[int(vid)] = int(pred)
            if self._table is not None:
                self._table.heap.insert(
                    (int(vid), vector.tobytes(), int(pred))
                )
                self._table.row_count += 1
        self._m_inserts.inc(flat.shape[0])

    # -- serving ---------------------------------------------------------

    def serve(self, features: np.ndarray) -> tuple[np.ndarray, CacheServeReport]:
        """Predictions for a batch, via cache where possible."""
        flat = _flatten(features)
        n = flat.shape[0]
        predictions = np.empty(n, dtype=np.int64)
        miss_rows: list[int] = []

        # HNSW supports a threshold-aware fast path: any neighbour within
        # the serving threshold answers the lookup, so the beam can stop
        # at the first in-threshold point.
        from ..indexes.hnsw import HnswIndex

        threshold_aware = isinstance(self.index, HnswIndex)
        degraded = False
        with self._lock:
            lookup_start = time.perf_counter()
            try:
                self._injector.fire(
                    "result_cache.lookup", model=self.model.name, rows=n
                )
                for i in range(n):
                    if threshold_aware:
                        result = self.index.search(
                            flat[i], k=1, early_stop_distance=self.distance_threshold
                        )
                    else:
                        result = self.index.search(flat[i], k=1)
                    if (
                        result.ids[0] >= 0
                        and result.nearest_distance <= self.distance_threshold
                    ):
                        predictions[i] = self._predictions[result.nearest_id]
                    else:
                        miss_rows.append(i)
            except (InjectedFaultError, AnnIndexError):
                # The cache is an accelerator, never a correctness
                # dependency: a failed lookup degrades the whole batch to
                # a recompute and skips insertion (the index may be in an
                # unknown state mid-probe).
                degraded = True
                miss_rows = list(range(n))
            lookup_seconds = time.perf_counter() - lookup_start

            model_seconds = 0.0
            if miss_rows:
                miss_idx = np.array(miss_rows)
                model_start = time.perf_counter()
                fresh = self.model.predict(features[miss_idx])
                model_seconds = time.perf_counter() - model_start
                predictions[miss_idx] = fresh
                if self.insert_on_miss and not degraded:
                    self._insert(flat[miss_idx], fresh)
        return predictions, self._account(
            n - len(miss_rows), len(miss_rows), lookup_seconds, model_seconds, degraded
        )

    def serve_exact(self, features: np.ndarray) -> tuple[np.ndarray, float]:
        """Bypass the cache (the no-cache baseline); returns (preds, secs)."""
        start = time.perf_counter()
        predictions = self.model.predict(features)
        return predictions, time.perf_counter() - start


class ExactResultCache(_ResultCache):
    """Exact inference-result caching via hash indexing (Sec. 5.1).

    The paper's alternative to approximate ANN caching for
    accuracy-critical applications: keys are the exact feature bytes, so
    a hit is byte-identical and the cached answer can never disagree with
    the model.  The trade: only exact repeats hit.
    """

    def __init__(
        self,
        model: Model,
        max_entries: int | None = None,
        metrics: MetricsRegistry | None = None,
        injector: FaultInjector | None = None,
        recorder=None,
    ):
        super().__init__(model, "exact", metrics, injector, recorder)
        self.max_entries = max_entries
        self._entries: dict[bytes, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def serve(self, features: np.ndarray) -> tuple[np.ndarray, CacheServeReport]:
        flat = _flatten(features)
        n = flat.shape[0]
        predictions = np.empty(n, dtype=np.int64)
        miss_rows: list[int] = []
        keys: list[bytes] = []
        degraded = False
        with self._lock:
            lookup_start = time.perf_counter()
            try:
                self._injector.fire(
                    "result_cache.lookup", model=self.model.name, rows=n
                )
                for i in range(n):
                    key = flat[i].tobytes()
                    keys.append(key)
                    cached = self._entries.get(key)
                    if cached is not None:
                        predictions[i] = cached
                    else:
                        miss_rows.append(i)
            except InjectedFaultError:
                # Degrade to a full recompute rather than failing the
                # batch; skip insertion for this degraded pass.
                degraded = True
                miss_rows = list(range(n))
            lookup_seconds = time.perf_counter() - lookup_start
            model_seconds = 0.0
            if miss_rows:
                miss_idx = np.array(miss_rows)
                model_start = time.perf_counter()
                fresh = self.model.predict(features[miss_idx])
                model_seconds = time.perf_counter() - model_start
                predictions[miss_idx] = fresh
                if not degraded:
                    for i, pred in zip(miss_rows, fresh):
                        if (
                            self.max_entries is None
                            or len(self._entries) < self.max_entries
                        ):
                            self._entries[keys[i]] = int(pred)
                    self._m_inserts.inc(len(miss_rows))
        return predictions, self._account(
            n - len(miss_rows), len(miss_rows), lookup_seconds, model_seconds, degraded
        )


def _flatten(features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    return features.reshape(features.shape[0], -1)
