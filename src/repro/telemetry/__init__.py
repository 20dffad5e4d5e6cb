"""Unified observability: metrics, tracing, events, per-query stats, logging.

One :class:`Telemetry` object bundles the three collection surfaces —

* a :class:`~repro.telemetry.registry.MetricsRegistry` of counters,
  gauges, and latency histograms with a Prometheus text exporter;
* a :class:`~repro.telemetry.tracing.Tracer` of nested spans with
  cross-thread :class:`~repro.telemetry.tracing.TraceContext`
  propagation, exportable as Chrome-trace JSON;
* a :class:`~repro.telemetry.events.FlightRecorder` ring of structured
  lifecycle events queryable via ``SHOW EVENTS`` / ``SHOW TIMELINE`` —

behind a single on/off switch (``SystemConfig.telemetry_enabled``).
Counters are system state, so every ``Telemetry`` owns a live registry
and the switch stops *exporting* it, not counting into it.  What the
switch does skip is recording work: disabled telemetry swaps in shared
null tracer, recorder, auditor, workload store, SLO tracker and profiler
objects, so spans, events, plan audits, fingerprints, burn rates and
stage samples cost one no-op method call.

A :class:`~repro.session.Database` owns one ``Telemetry``; query it from
SQL with ``SHOW METRICS`` / ``SHOW STATS`` / ``SHOW EVENTS`` /
``SHOW TIMELINE <trace_id>``, per query via ``cursor.stats``
(:class:`~repro.telemetry.query_stats.QueryStats`), export spans with
``Database.export_trace(path)``, or capture everything at once with
``Database.dump_diagnostics(path)``.
"""

from __future__ import annotations

from .audit import (
    AUDIT_COLUMNS,
    NULL_AUDITOR,
    NullAuditor,
    PlanAuditor,
    StageAudit,
)
from .events import (
    EVENT_COLUMNS,
    EVENT_KINDS,
    NULL_RECORDER,
    TIMELINE_COLUMNS,
    Event,
    FlightRecorder,
    NullRecorder,
    timeline_rows,
    timelines,
)
from .logs import (
    ROOT_LOGGER_NAME,
    TRACE_LOG_FORMAT,
    TraceContextFilter,
    current_trace_ids,
    enable_console_logging,
    get_logger,
    register_tracer,
)
from .profiler import (
    NULL_PROFILER,
    PROFILE_COLUMNS,
    NullStageProfiler,
    StageProfiler,
)
from .query_stats import QueryStats
from .slo import NULL_SLO, SLO_COLUMNS, NullSloTracker, SloPolicy, SloTracker
from .workload import (
    NULL_WORKLOAD,
    WORKLOAD_COLUMNS,
    NullWorkloadStore,
    WorkloadStore,
    fingerprint,
)
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    CounterView,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import NULL_TRACER, NullTracer, Span, TraceContext, Tracer


class Telemetry:
    """One registry + tracer + flight recorder + plan auditor + workload
    intelligence (fingerprint store, SLO tracker, stage profiler) behind
    a single switch.

    The registry is live either way; ``enabled`` decides whether it is
    exported and whether the recording objects are real or null.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_spans: int = 16384,
        page_size: int = 64 * 1024,
        slo_min_samples: int = 8,
        profiler_interval_ms: float = 5.0,
    ):
        self.enabled = enabled
        self.registry = MetricsRegistry()
        if not enabled:
            self.tracer: Tracer | NullTracer = NULL_TRACER
            self.audit: PlanAuditor | NullAuditor = NULL_AUDITOR
            self.events: FlightRecorder | NullRecorder = NULL_RECORDER
            self.workload: WorkloadStore | NullWorkloadStore = NULL_WORKLOAD
            self.slo: SloTracker | NullSloTracker = NULL_SLO
            self.profiler: StageProfiler | NullStageProfiler = NULL_PROFILER
            return
        self.tracer = Tracer(max_spans=max_spans, metrics=self.registry)
        register_tracer(self.tracer)  # log-record trace correlation
        self.audit = PlanAuditor(self.registry)
        self.events = FlightRecorder(metrics=self.registry)
        self.workload = WorkloadStore(
            page_size=page_size, metrics=self.registry, recorder=self.events
        )
        self.slo = SloTracker(
            min_samples=slo_min_samples, metrics=self.registry, recorder=self.events
        )
        self.profiler = StageProfiler(
            interval_ms=profiler_interval_ms, metrics=self.registry
        )


__all__ = [
    "Telemetry",
    "PlanAuditor",
    "NullAuditor",
    "StageAudit",
    "AUDIT_COLUMNS",
    "NULL_AUDITOR",
    "MetricsRegistry",
    "Counter",
    "CounterView",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "Tracer",
    "NullTracer",
    "Span",
    "TraceContext",
    "NULL_TRACER",
    "Event",
    "FlightRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "EVENT_COLUMNS",
    "EVENT_KINDS",
    "TIMELINE_COLUMNS",
    "timeline_rows",
    "timelines",
    "QueryStats",
    "get_logger",
    "enable_console_logging",
    "register_tracer",
    "current_trace_ids",
    "TraceContextFilter",
    "TRACE_LOG_FORMAT",
    "ROOT_LOGGER_NAME",
    "WorkloadStore",
    "NullWorkloadStore",
    "NULL_WORKLOAD",
    "WORKLOAD_COLUMNS",
    "fingerprint",
    "SloTracker",
    "NullSloTracker",
    "SloPolicy",
    "NULL_SLO",
    "SLO_COLUMNS",
    "StageProfiler",
    "NullStageProfiler",
    "NULL_PROFILER",
    "PROFILE_COLUMNS",
]
