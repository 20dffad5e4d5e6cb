"""Workload intelligence: query fingerprints and per-shape aggregates.

Recurring query *shapes* — not individual statements — are what the
plan-compile cache, scale-out placement, and model-versioning layers need
to reason about.  The SQL front end keys each statement by a stable
**fingerprint** (:func:`repro.sql.parser.fingerprint`: every literal
replaced by a ``'?'`` placeholder, then rendered through the canonical
unparse form and hashed), so ``WHERE x = 1`` and ``WHERE x = 2`` — or the
same statement reformatted or re-cased — collapse into one workload entry.

A bounded :class:`WorkloadStore` aggregates per-fingerprint execution
statistics from :class:`~repro.telemetry.query_stats.QueryStats` on every
``Database.execute``: call count, a latency histogram, rows and bytes
read, engine representation mix, result-cache hit ratio, runtime
recoveries, and the last plan summary.  The ``sys.workload`` relation
(``SHOW WORKLOAD [TOP k BY latency|count|bytes]``) is the aggregate view
and ``sys.workload_detail`` (``SHOW WORKLOAD '<fingerprint>'``) the
per-shape detail view.

The store doubles as the **plan-regression detector**: each fingerprint
keeps a rolling latency baseline (seeded over a warmup window, then
exponentially aged) and a last-plan summary; a fresh execution that blows
past ``regression_factor`` times the baseline, or that switches
representation mix, emits a ``workload.regression`` flight-recorder event
and bumps ``workload_regressions_total``.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from .registry import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry


class WorkloadRow(NamedTuple):
    """One row of the ``workload`` system relation (``SHOW WORKLOAD``)."""

    fingerprint: str
    statement: str
    calls: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    rows: int
    bytes: int
    cache_hit_rate: float
    recoveries: int
    plan: str
    sql: str


class WorkloadDetailRow(NamedTuple):
    """One row of the ``workload_detail`` relation (``SHOW WORKLOAD '<fp>'``)."""

    fingerprint: str
    stat: str
    value: object  # each statistic unchanged

    #: The key column (see :meth:`WorkloadStore.detail_rows`).
    KEY = "fingerprint"


# -- the bounded per-fingerprint store -----------------------------------


class _Entry:
    """Aggregated execution state for one query fingerprint."""

    __slots__ = (
        "fingerprint",
        "text",
        "statement",
        "calls",
        "total_seconds",
        "total_rows",
        "total_bytes",
        "latency",
        "cache_hits",
        "cache_misses",
        "recoveries",
        "representations",
        "plan_summary",
        "last_trace_id",
        "last_used",
        "baseline_seconds",
        "warmup_seconds",
        "regressions",
    )

    def __init__(self, fp: str, text: str, statement: str):
        self.fingerprint = fp
        self.text = text
        self.statement = statement
        self.calls = 0
        self.total_seconds = 0.0
        self.total_rows = 0
        self.total_bytes = 0
        self.latency = Histogram(
            "workload_latency_seconds", buckets=DEFAULT_LATENCY_BUCKETS
        )
        self.cache_hits = 0
        self.cache_misses = 0
        self.recoveries = 0
        self.representations: dict[str, int] = {}
        self.plan_summary = ""
        self.last_trace_id = 0
        self.last_used = 0
        self.baseline_seconds = 0.0
        self.warmup_seconds = 0.0
        self.regressions = 0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def _plan_summary(representations: dict[str, int]) -> str:
    if not representations:
        return "-"
    return ",".join(
        f"{rep}={count}" for rep, count in sorted(representations.items())
    )


class WorkloadStore:
    """Bounded per-fingerprint workload aggregates (thread-safe).

    At most ``max_fingerprints`` shapes are tracked; recording a new
    shape at capacity evicts the least-recently-seen one (counted in
    ``workload_evicted_total``), so a run of one-off ad-hoc statements
    cannot push out the recurring shapes that matter.  Built with
    ``enabled=False`` it records nothing.
    """

    def __init__(
        self,
        max_fingerprints: int = 512,
        page_size: int = 64 * 1024,
        regression_factor: float = 3.0,
        regression_warmup: int = 8,
        regression_min_ms: float = 5.0,
        metrics=None,
        recorder=None,
        enabled: bool = True,
    ):
        if max_fingerprints < 1:
            from ..errors import TelemetryError

            raise TelemetryError("max_fingerprints must be >= 1")
        self.enabled = enabled
        self.max_fingerprints = max_fingerprints
        self.page_size = page_size
        self.regression_factor = regression_factor
        self.regression_warmup = max(1, regression_warmup)
        self.regression_min_seconds = regression_min_ms / 1e3
        self._entries: dict[str, _Entry] = {}
        self._lock = threading.Lock()
        self._clock = 0  # recency counter for LRU eviction (no wall time)
        self.evicted_total = 0
        self.recorded_total = 0
        self._recorder = recorder
        registry = metrics if metrics is not None else MetricsRegistry()
        self._m_regressions = registry.counter(
            "workload_regressions_total",
            "Fingerprints whose fresh latency or plan regressed "
            "against the rolling baseline",
        )
        self._m_evicted = registry.counter(
            "workload_evicted_total",
            "Fingerprints evicted from the bounded workload store",
        )
        self._m_fingerprints = registry.gauge(
            "workload_fingerprints", "Distinct query shapes tracked"
        )

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, fingerprinted: tuple[str, str], stats) -> str:
        """Fold one executed statement's ``QueryStats`` into the store.

        ``fingerprinted`` is the statement's ``(fingerprint, normalized
        sql)`` (:func:`repro.sql.parser.fingerprint`; the statement cache
        keeps it per shape), and ``stats.statement`` names its kind.
        Returns the fingerprint (``""`` when disabled).  Called by
        ``Database.execute`` after the per-query stats are assembled, so
        it never holds the store lock while the query runs.
        """
        if not self.enabled:
            return ""
        fp, text = fingerprinted
        bytes_read = stats.pool_misses * self.page_size
        with self._lock:
            self._clock += 1
            entry = self._entries.get(fp)
            if entry is None:
                if len(self._entries) >= self.max_fingerprints:
                    self._evict_locked()
                entry = _Entry(fp, text, stats.statement)
                self._entries[fp] = entry
                self._m_fingerprints.set(len(self._entries))
            entry.last_used = self._clock
            entry.calls += 1
            entry.total_seconds += stats.elapsed_seconds
            entry.total_rows += stats.rows
            entry.total_bytes += bytes_read
            entry.latency.observe(stats.elapsed_seconds)
            entry.cache_hits += stats.cache_hits
            entry.cache_misses += stats.cache_misses
            entry.recoveries += stats.recovered_stages
            for rep, count in stats.representations.items():
                entry.representations[rep] = (
                    entry.representations.get(rep, 0) + count
                )
            if stats.trace_id:
                entry.last_trace_id = stats.trace_id
            self.recorded_total += 1
            self._detect_regression_locked(entry, stats)
        return fp

    def _evict_locked(self) -> None:
        victim = min(self._entries.values(), key=lambda e: e.last_used)
        del self._entries[victim.fingerprint]
        self.evicted_total += 1
        self._m_evicted.inc()

    def _detect_regression_locked(self, entry: _Entry, stats) -> None:
        """Compare one fresh execution against the fingerprint's baseline.

        The baseline latency is the mean of the first ``warmup`` calls,
        then exponentially aged (alpha 0.2) so a persistently slower
        world re-baselines instead of alerting forever.  Plan choice is
        compared as the representation-mix summary of this execution.
        """
        elapsed = stats.elapsed_seconds
        plan_now = _plan_summary(stats.representations)
        if entry.calls <= self.regression_warmup:
            entry.warmup_seconds += elapsed
            entry.baseline_seconds = entry.warmup_seconds / entry.calls
            if stats.representations or entry.calls == 1:
                entry.plan_summary = plan_now
            return
        baseline = entry.baseline_seconds
        slow = (
            elapsed > baseline * self.regression_factor
            and elapsed - baseline >= self.regression_min_seconds
        )
        plan_changed = (
            bool(stats.representations)
            and entry.plan_summary not in ("", "-")
            and plan_now != entry.plan_summary
        )
        if slow or plan_changed:
            entry.regressions += 1
            self._m_regressions.inc()
            if self._recorder is not None:
                self._recorder.emit(
                    "workload.regression",
                    trace_id=stats.trace_id or None,
                    fingerprint=entry.fingerprint,
                    regression="plan" if plan_changed else "latency",
                    latency_ms=round(elapsed * 1e3, 3),
                    baseline_ms=round(baseline * 1e3, 3),
                    plan=plan_now,
                    previous_plan=entry.plan_summary,
                )
        entry.baseline_seconds = baseline + 0.2 * (elapsed - baseline)
        if stats.representations:
            entry.plan_summary = plan_now

    # -- rendering -------------------------------------------------------

    def _row(self, entry: _Entry) -> WorkloadRow:
        return WorkloadRow(
            entry.fingerprint,
            entry.statement,
            entry.calls,
            round(entry.mean_seconds * 1e3, 3),
            round(entry.latency.quantile(0.5) * 1e3, 3),
            round(entry.latency.quantile(0.95) * 1e3, 3),
            entry.total_rows,
            entry.total_bytes,
            round(entry.cache_hit_rate, 4),
            entry.recoveries,
            entry.plan_summary or "-",
            entry.text,
        )

    @staticmethod
    def _detail(entry: _Entry) -> list[tuple[str, object]]:
        """One entry's ``(stat, value)`` pairs (``SHOW WORKLOAD '<fp>'``)."""
        rows: list[tuple[str, object]] = [
            ("fingerprint", entry.fingerprint),
            ("sql", entry.text),
            ("statement", entry.statement),
            ("calls", entry.calls),
            ("mean_ms", round(entry.mean_seconds * 1e3, 3)),
            ("p50_ms", round(entry.latency.quantile(0.5) * 1e3, 3)),
            ("p95_ms", round(entry.latency.quantile(0.95) * 1e3, 3)),
            ("p99_ms", round(entry.latency.quantile(0.99) * 1e3, 3)),
            ("rows", entry.total_rows),
            ("bytes", entry.total_bytes),
            ("cache_hits", entry.cache_hits),
            ("cache_misses", entry.cache_misses),
            ("cache_hit_rate", round(entry.cache_hit_rate, 4)),
            ("recoveries", entry.recoveries),
            ("regressions", entry.regressions),
            ("baseline_ms", round(entry.baseline_seconds * 1e3, 3)),
            ("plan", entry.plan_summary or "-"),
        ]
        for rep, count in sorted(entry.representations.items()):
            rows.append((f"stages[{rep}]", count))
        if entry.last_trace_id:
            rows.append(("last_trace_id", entry.last_trace_id))
        return rows

    def _ranked_locked(self) -> list[_Entry]:
        """Entries by total latency, hottest first, then by fingerprint."""
        return sorted(
            self._entries.values(), key=lambda e: (-e.total_seconds, e.fingerprint)
        )

    def top_rows(self) -> list[WorkloadRow]:
        """``sys.workload`` rows, hottest first."""
        with self._lock:
            return [self._row(e) for e in self._ranked_locked()]

    def detail_rows(self, fingerprint: str | None = None) -> list[WorkloadDetailRow]:
        """``sys.workload_detail`` rows: each entry's ``(fingerprint, stat,
        value)`` triples, entries in :meth:`top_rows` order, or entry
        ``fingerprint``'s alone."""
        with self._lock:
            return [
                WorkloadDetailRow(entry.fingerprint, stat, value)
                for entry in self._ranked_locked()
                if fingerprint is None or entry.fingerprint == fingerprint
                for stat, value in self._detail(entry)
            ]

    def regressions_total(self) -> int:
        with self._lock:
            return sum(e.regressions for e in self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.evicted_total = 0
            self.recorded_total = 0
