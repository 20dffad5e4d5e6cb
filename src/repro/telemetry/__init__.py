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
switch does skip is recording work: off, the tracer, recorder, auditor,
workload store, SLO tracker and profiler are the same classes built
disabled, so spans, events, plan audits, fingerprints, burn rates and
stage samples return after one attribute check and record nothing.

A :class:`~repro.session.Database` owns one ``Telemetry``; query it from
SQL with ``SHOW METRICS`` / ``SHOW STATS`` / ``SHOW EVENTS`` /
``SHOW TIMELINE <trace_id>``, per query via ``cursor.stats``
(:class:`~repro.telemetry.query_stats.QueryStats`), export spans with
``Database.export_trace(path)``, or capture everything at once with
``Database.dump_diagnostics(path)``.
"""

from __future__ import annotations

from .audit import PlanAuditor, StageAudit
from .events import EVENT_KINDS, Event, FlightRecorder, timeline_rows, timelines
from .logs import (
    ROOT_LOGGER_NAME,
    TRACE_LOG_FORMAT,
    TraceContextFilter,
    current_trace_ids,
    enable_console_logging,
    get_logger,
    register_tracer,
)
from .profiler import StageProfiler
from .query_stats import QueryStats
from .slo import SloPolicy, SloTracker
from .workload import WorkloadStore
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    CounterView,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import Span, TraceContext, Tracer

#: Every system relation a ``Database`` registers (``sys.<name>``), in
#: order: the targets of ``SHOW <target> [WHERE ...]`` and the tables of a
#: diagnostics bundle (a test keeps the two equal).  They are named here,
#: below the SQL front end, so telemetry reads them without importing it.
#: ``SHOW TIMELINE <trace_id>`` and ``SHOW WORKLOAD TOP k BY x |
#: '<fingerprint>'`` are sugar over ``sys.timeline``, ``sys.workload``
#: and ``sys.workload_detail`` too (see the parser's ``_parse_show``).
SHOW_TARGETS: tuple[str, ...] = (
    "tables", "models", "metrics", "stats", "server", "cluster", "audit",
    "faults", "health", "events", "timeline", "slo", "profile",
    "deployments", "workload", "workload_detail",
)


class Telemetry:
    """One registry + tracer + flight recorder + plan auditor + workload
    intelligence (fingerprint store, SLO tracker, stage profiler) behind
    a single switch.

    The registry is live either way; ``enabled`` decides whether it is
    exported and whether the recording objects record.
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
        self.tracer = Tracer(
            max_spans=max_spans, metrics=self.registry, enabled=enabled
        )
        register_tracer(self.tracer)  # log-record trace correlation
        self.audit = PlanAuditor(self.registry, enabled=enabled)
        self.events = FlightRecorder(metrics=self.registry, enabled=enabled)
        self.workload = WorkloadStore(
            page_size=page_size,
            metrics=self.registry,
            recorder=self.events,
            enabled=enabled,
        )
        self.slo = SloTracker(
            min_samples=slo_min_samples,
            metrics=self.registry,
            recorder=self.events,
            enabled=enabled,
        )
        self.profiler = StageProfiler(
            interval_ms=profiler_interval_ms, metrics=self.registry, enabled=enabled
        )


__all__ = [
    "Telemetry",
    "PlanAuditor",
    "StageAudit",
    "MetricsRegistry",
    "Counter",
    "CounterView",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "Tracer",
    "Span",
    "TraceContext",
    "Event",
    "FlightRecorder",
    "EVENT_KINDS",
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
    "SloTracker",
    "SloPolicy",
    "StageProfiler",
]
