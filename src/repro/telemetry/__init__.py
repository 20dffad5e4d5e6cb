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
Disabled telemetry swaps in shared null objects, so instrumented hot
paths pay only a no-op method call.

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
    GLOBAL_REGISTRY,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .tracing import NULL_TRACER, NullTracer, Span, TraceContext, Tracer


class Telemetry:
    """One registry + tracer + flight recorder + plan auditor + workload
    intelligence (fingerprint store, SLO tracker, stage profiler) behind
    a single switch."""

    def __init__(
        self,
        enabled: bool = True,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        max_spans: int = 16384,
        page_size: int = 64 * 1024,
        slo_min_samples: int = 8,
        profiler_interval_ms: float = 5.0,
    ):
        self.enabled = enabled
        if enabled:
            self.registry: MetricsRegistry | NullRegistry = (
                registry if registry is not None else MetricsRegistry()
            )
            self.tracer: Tracer | NullTracer = (
                tracer if tracer is not None else Tracer(max_spans=max_spans)
            )
            # Truncated Chrome traces must be self-explaining: overflow
            # drops feed a registry counter surfaced by SHOW STATS.
            self.tracer.drop_counter = self.registry.counter(
                "tracer_spans_dropped_total",
                "Finished spans dropped by the tracer ring buffer",
            )
            register_tracer(self.tracer)  # log-record trace correlation
            self.audit: PlanAuditor | NullAuditor = PlanAuditor(self.registry)
            self.events: FlightRecorder | NullRecorder = FlightRecorder(
                metrics=self.registry
            )
            self.workload: WorkloadStore | NullWorkloadStore = WorkloadStore(
                page_size=page_size, metrics=self.registry, recorder=self.events
            )
            self.slo: SloTracker | NullSloTracker = SloTracker(
                min_samples=slo_min_samples,
                metrics=self.registry,
                recorder=self.events,
            )
            self.profiler: StageProfiler | NullStageProfiler = StageProfiler(
                interval_ms=profiler_interval_ms, metrics=self.registry
            )
        else:
            self.registry = NULL_REGISTRY
            self.tracer = NULL_TRACER
            self.audit = NULL_AUDITOR
            self.events = NULL_RECORDER
            self.workload = NULL_WORKLOAD
            self.slo = NULL_SLO
            self.profiler = NULL_PROFILER


#: Shared disabled instance — components default to this when no
#: telemetry is supplied, keeping instrumentation cost at one no-op call.
DISABLED = Telemetry(enabled=False)

__all__ = [
    "Telemetry",
    "DISABLED",
    "PlanAuditor",
    "NullAuditor",
    "StageAudit",
    "AUDIT_COLUMNS",
    "NULL_AUDITOR",
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "GLOBAL_REGISTRY",
    "NULL_REGISTRY",
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
