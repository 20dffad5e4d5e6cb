"""The system relations of a :class:`~repro.session.Database`.

One ``(row class, rows)`` source per ``sys.<name>``, read by the planner
(``FROM sys.<name>``; ``SHOW`` is sugar for it) and by the diagnostics
bundle.  A keyed relation's rows callable takes its key's value (see
:class:`~repro.sql.planner.Planner`).
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

from .faults import FaultRow
from .health import ComponentHealth
from .lifecycle import DeploymentRow
from .relational.schema import Schema
from .sql.planner import Relations
from .telemetry.audit import AuditRow
from .telemetry.events import EventRow, TimelineRow, timelines
from .telemetry.profiler import ProfileRow
from .telemetry.registry import MetricRow
from .telemetry.slo import SloRow
from .telemetry.workload import WorkloadDetailRow, WorkloadRow


class TableRow(NamedTuple):
    """One row of the ``tables`` system relation (``SHOW TABLES``)."""

    name: str
    columns: int
    rows: int


class ModelRow(NamedTuple):
    """One row of the ``models`` system relation (``SHOW MODELS``)."""

    name: str
    model: str
    params: int


class StatRow(NamedTuple):
    """One row of a ``(stat, value)`` relation: ``stats``, ``server``, ``cluster``."""

    stat: str
    value: object  # mixed types: declared TEXT, each returned unchanged


#: The process pool attached to each database.  A ``ClusterPool`` enters
#: itself when it is built (by ``Database.serve`` or directly) and leaves
#: when it closes, so ``SHOW CLUSTER``, health and diagnostics see it
#: however it was started.
CLUSTER_POOLS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _stat_rows(attached) -> list[StatRow]:
    """``SHOW SERVER`` / ``SHOW CLUSTER``: the attached server's or
    pool's ``stats_rows``, none while nothing is attached."""
    return [] if attached is None else list(map(StatRow._make, attached.stats_rows()))


def system_relations(db) -> Relations:
    """Every ``sys.<name>`` of ``db``; a bad row class fails here."""
    telemetry = db.telemetry
    relations: Relations = {
        "tables": (
            TableRow,
            lambda: sorted(
                TableRow(t.name, len(t.schema), t.row_count)
                for t in db.catalog.tables()
            ),
        ),
        "models": (
            ModelRow,
            lambda: sorted(
                ModelRow(r.name, r.model.name, r.model.param_count)
                for r in db.lifecycle.snapshot().records()
            ),
        ),
        "metrics": (
            MetricRow,
            lambda: telemetry.registry.rows() if telemetry.enabled else [],
        ),
        "stats": (StatRow, lambda: _system_stats_rows(db)),
        "server": (StatRow, lambda: _stat_rows(db._server)),
        "cluster": (StatRow, lambda: _stat_rows(CLUSTER_POOLS.get(db))),
        "audit": (AuditRow, telemetry.audit.rows),
        "faults": (FaultRow, db.faults.rows),
        "health": (ComponentHealth, lambda: db.health().rows()),
        "events": (EventRow, telemetry.events.rows),
        "timeline": (
            TimelineRow,
            lambda trace_id=None: timelines(
                telemetry.events.events(), telemetry.tracer.finished, trace_id
            ),
        ),
        "slo": (SloRow, telemetry.slo.rows),
        "profile": (ProfileRow, telemetry.profiler.top_rows),
        "deployments": (DeploymentRow, db.deployments.rows),
        "workload": (WorkloadRow, telemetry.workload.top_rows),
        "workload_detail": (WorkloadDetailRow, telemetry.workload.detail_rows),
    }
    for row_type, __ in relations.values():
        Schema.of_row(row_type)
    return relations


def _system_stats_rows(db) -> list[StatRow]:
    """Rows for ``SHOW STATS``: one (stat, value) pair per line.

    Sections that depend on an optional facility contribute zero rows
    rather than raising when that facility is off: the ``telemetry.*``
    and ``audit.*`` rows appear only with telemetry enabled, and the
    ``server.*`` rows only while a :class:`~repro.server.ModelServer`
    is attached.
    """
    pool, config, telemetry, faults = db.buffer_pool, db.config, db.telemetry, db.faults
    rows: list[tuple[str, object]] = [
        ("bufferpool.capacity_pages", pool.capacity),
        ("bufferpool.resident_pages", pool.resident_pages),
        ("bufferpool.pinned_pages", pool.pinned_page_count()),
        ("bufferpool.hits", pool.stats.hits),
        ("bufferpool.misses", pool.stats.misses),
        ("bufferpool.hit_rate", round(pool.stats.hit_rate, 6)),
        ("bufferpool.evictions", pool.stats.evictions),
        ("bufferpool.dirty_writebacks", pool.stats.dirty_writebacks),
        ("catalog.tables", len(list(db.catalog.tables()))),
        ("catalog.models", len(db.lifecycle.snapshot().records())),
        ("config.eviction_policy", config.eviction_policy),
        ("config.memory_threshold_bytes", config.memory_threshold_bytes),
        ("config.telemetry_enabled", config.telemetry_enabled),
    ]
    if telemetry.enabled:
        tracer, events, audit = telemetry.tracer, telemetry.events, telemetry.audit
        workload, profiler = telemetry.workload, telemetry.profiler
        rows += [
            ("telemetry.spans_recorded", len(tracer.finished)),
            ("telemetry.spans_dropped", tracer.dropped),
            ("telemetry.events_recorded", len(events)),
            ("telemetry.events_emitted", events.emitted_total),
            ("telemetry.events_dropped", events.dropped),
            ("audit.records", len(audit)),
            ("audit.records_total", audit.total_recorded),
            ("audit.mispredictions", len(audit.mispredictions())),
            ("workload.fingerprints", len(workload)),
            ("workload.recorded", workload.recorded_total),
            ("workload.evicted", workload.evicted_total),
            ("workload.regressions", workload.regressions_total()),
            ("slo.models", len(telemetry.slo.policies())),
            ("profiler.running", profiler.running),
            ("profiler.samples", profiler.sampled),
        ]
    rows += _stat_rows(db._server) + _stat_rows(CLUSTER_POOLS.get(db))
    if faults.active:
        rows += [
            ("faults.armed", faults.armed_count),
            ("faults.injected", faults.injected_total),
            ("faults.retries", faults.retry_total),
            ("faults.recoveries", faults.recovery_total),
        ]
    for name, cache in sorted(db._models.caches.items()):
        stats = cache.stats
        rows.append((f"result_cache.{name}.entries", len(cache)))
        rows.append((f"result_cache.{name}.hits", stats.hits))
        rows.append((f"result_cache.{name}.misses", stats.misses))
        rows.append((f"result_cache.{name}.hit_rate", round(stats.hit_rate, 6)))
    for name, entry in sorted(db._models.vector_indexes.items()):
        rows.append((f"vector_index.{name}.kind", entry.kind))
        rows.append((f"vector_index.{name}.vectors", len(entry.rids)))
    return list(map(StatRow._make, rows))
