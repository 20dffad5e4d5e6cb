"""The public entry point: an embedded database that serves DL models.

:class:`Database` wires together the storage engine, the SQL front end,
the model catalog, the AoT compiler, and the hybrid executor::

    from repro import Database
    from repro.models import fraud_fc_256

    db = Database()
    db.execute("CREATE TABLE tx (id INT, f0 DOUBLE, ..., label INT)")
    db.load_rows("tx", rows)
    db.register_model(fraud_fc_256(), name="fraud")
    cur = db.execute("SELECT id, PREDICT(fraud, f0, ...) AS p FROM tx")

``PREDICT`` calls run through the rule-based adaptive optimizer: each
lowered operator picks the UDF-centric or relation-centric representation
by the paper's memory-threshold rule (DL-centric offload can be forced or
chosen by SLA policies).
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, SystemConfig
from .core.compiler import AotCompiler, CompiledModel
from .core.ir import InferencePlan, Representation
from .core.optimizer import RuleBasedOptimizer
from .dlruntime.layers import Model
from .dlruntime.memory import MemoryBudget
from .engines.base import EngineResult
from .engines.hybrid import HybridExecutor
from .errors import CatalogError, ConfigError, ReproError, SchemaError, SqlError
from .faults import FAULT_SCHEMA, FaultInjector, FaultPlan
from .health import HEALTH_SCHEMA, HealthReport
from .health import collect as collect_health
from .lifecycle import (
    DEPLOYMENT_COLUMNS,
    DEPLOYMENT_SCHEMA,
    DeploymentController,
    ModelCatalog,
)
from .lifecycle.routing import routed_predict
from .relational.schema import ColumnType, Schema
from .resilience import RecoveryLedger
from .server.locks import ReadWriteLock
from .sql import ast as sql_ast
from .sql.parser import STATEMENTS, parse
from .sql.planner import Planner, Relations, predict_models
from .storage.buffer_pool import (
    BufferPool,
    ClockPolicy,
    EvictionPolicy,
    LruPolicy,
    TwoQueuePolicy,
)
from .storage.catalog import Catalog, TableInfo, VersionRecord, split_version_name
from .storage.disk import FileDiskManager, InMemoryDiskManager
from .telemetry import QueryStats, StageAudit, Telemetry
from .telemetry.audit import AUDIT_SCHEMA
from .telemetry.events import EVENT_SCHEMA, TIMELINE_SCHEMA, timelines
from .telemetry.profiler import PROFILE_SCHEMA
from .telemetry.registry import METRICS_SCHEMA
from .telemetry.slo import SLO_SCHEMA
from .telemetry.workload import WORKLOAD_DETAIL_SCHEMA, WORKLOAD_SCHEMA

#: ``(stat, value)`` relations mix value types per row, so ``value`` is
#: declared TEXT; the values themselves are returned unchanged.
_STAT_SCHEMA = Schema.of(("stat", ColumnType.TEXT), ("value", ColumnType.TEXT))


@dataclass
class _VectorIndexEntry:
    """Session-side metadata for one ANN index over a table column."""

    table: str
    column: str
    kind: str
    index: object | None = None
    rids: list = field(default_factory=list)


def _render_inference_stages(
    models: list[str], audits: list[StageAudit], audit_enabled: bool
) -> list[str]:
    """The EXPLAIN ANALYZE section covering model inference stages.

    One PREDICT statement runs its plan once per planner batch, so the
    per-batch audit records are aggregated by (model, stage): rows and
    time sum, the actual peak is the worst batch, and the verdict is the
    worst batch's verdict (any misprediction wins over ``ok``).
    """
    lines = ["", f"inference stages (predict: {', '.join(models)}):"]
    if not audit_enabled:
        lines.append("  (telemetry disabled: no estimate-vs-actual audit)")
        return lines
    if not audits:
        lines.append("  (no inference stages executed)")
        return lines
    grouped: dict[tuple[str, int], list[StageAudit]] = {}
    for audit in audits:
        grouped.setdefault((audit.model, audit.stage_index), []).append(audit)
    for (model, idx), batch_audits in sorted(grouped.items()):
        first = batch_audits[0]
        rows = sum(a.rows for a in batch_audits)
        seconds = sum(a.elapsed_seconds for a in batch_audits)
        actual = max(a.actual_peak_bytes for a in batch_audits)
        estimated = max(a.estimated_bytes for a in batch_audits)
        flagged = [a for a in batch_audits if a.mispredicted]
        verdict = flagged[0].verdict if flagged else "ok"
        lines.append(
            f"  {model} stage{idx} [{first.representation}]({first.ops})  "
            f"[rows={rows}, time={seconds * 1e3:.2f}ms, "
            f"est={estimated}B, actual={actual}B, verdict={verdict}]"
        )
    return lines


def _explained(sql: str, analyze: bool) -> sql_ast.Select:
    """The SELECT that ``Database.explain`` (``analyze`` False) or
    ``explain_analyze`` takes: the text's own, or the one its matching
    EXPLAIN form wraps; anything else raises :class:`SqlError`."""
    stmt = parse(sql)
    if isinstance(stmt, sql_ast.Explain) and stmt.analyze == analyze:
        stmt = stmt.query
    if not isinstance(stmt, sql_ast.Select):
        raise SqlError(
            f"EXPLAIN {'ANALYZE ' if analyze else ''}supports SELECT statements only"
        )
    return stmt


def _append_rows(info: TableInfo, rows: Iterable[tuple]) -> int:
    """Insert rows, counting each as it lands; returns how many landed.

    A value the row format cannot encode raises :class:`SchemaError`
    naming the table and the row; the rows before it stay, counted."""
    before = info.row_count
    for index, row in enumerate(rows):
        try:
            info.heap.insert(row)
        except (TypeError, ValueError, struct.error) as exc:
            raise SchemaError(
                f"cannot store row {index} in table {info.name!r}: {exc}"
            ) from exc
        info.row_count += 1
    return info.row_count - before


def _make_policy(name: str) -> EvictionPolicy:
    if name == "clock":
        return ClockPolicy()
    if name == "2q":
        return TwoQueuePolicy()
    return LruPolicy()


@dataclass
class Cursor:
    """A fully-materialized query result.

    When telemetry is enabled, ``stats`` carries the
    :class:`~repro.telemetry.QueryStats` for the statement that produced
    this cursor (rows, wall-clock time, buffer-pool and result-cache
    deltas, engine seconds, representations executed).
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    stats: QueryStats | None = None

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def fetchall(self) -> list[tuple]:
        return list(self.rows)

    def fetchone(self) -> tuple | None:
        return self.rows[0] if self.rows else None

    def column(self, name: str) -> list[object]:
        idx = self.columns.index(name.lower())
        return [row[idx] for row in self.rows]


#: Statement types that only read state; they share the database's read
#: lock.  Everything else (DDL/DML) takes the write lock exclusively.
_READ_STATEMENTS = (sql_ast.Select, sql_ast.Explain, sql_ast.UnionAll)

#: Lifecycle statements also run on the read side: the deployment
#: controller serializes its own writers on a private mutation lock and
#: publishes every routing change as one atomic snapshot swap, so
#: DEPLOY/ROLLBACK never block — or wait on — serving traffic.
_LIFECYCLE_STATEMENTS = (
    sql_ast.DeployModel,
    sql_ast.RollbackModel,
)

#: What ``set_option`` may change on a live database: the fields (or
#: field-name prefixes) read by the optimizer, compiler, executor and
#: planner that ``_rebuild_planning`` rebuilds.  Everything else — page
#: size, buffer pool, telemetry, cluster — is fixed once the Database is
#: built.
_PLANNING_OPTIONS = (
    "memory_threshold_bytes",
    "dl_memory_limit_bytes",
    "tensor_block_",
    "default_batch_size",
    "framework_compute_efficiency",
    "resilience_",
    "breaker_",
)


class Database:
    """An embedded RDBMS with in-database model serving.

    **Concurrency contract** (enforced by an internal
    :class:`~repro.server.locks.ReadWriteLock`): reads — SELECT,
    PREDICT via :meth:`predict`/:meth:`predict_labels`, SHOW, EXPLAIN,
    :meth:`vector_search` — may run concurrently from many threads.
    DDL/DML statements and administrative mutations (``register_model``,
    ``set_option``, ``create_vector_index``, ``enable_result_cache``,
    ``load_rows``, ``close``) serialize exclusively against everything
    else.  The serving front-end (:meth:`serve`) relies on this: its
    worker pool executes batched PREDICTs under the shared read side.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        path: str | None = None,
        fault_plan: FaultPlan | None = None,
        **config_overrides: object,
    ):
        base = config if config is not None else DEFAULT_CONFIG
        self._config = (
            base.with_options(**config_overrides) if config_overrides else base
        )
        self._path = path
        self._telemetry = Telemetry(
            enabled=self._config.telemetry_enabled,
            max_spans=self._config.telemetry_max_spans,
            page_size=self._config.page_size,
            slo_min_samples=self._config.slo_min_samples,
            profiler_interval_ms=self._config.profiler_interval_ms,
        )
        if self._config.profiler_enabled:
            self._telemetry.profiler.start()
        registry = self._telemetry.registry
        self._m_queries = registry.counter(
            "queries_total", "SQL statements executed"
        )
        self._m_query_seconds = registry.histogram(
            "query_seconds", "End-to-end statement latency"
        )
        self._m_plan_selections = {
            rep: registry.counter(
                "optimizer_plan_selections_total",
                "Plan stages selected at query time, by representation",
                representation=rep.value,
            )
            for rep in Representation
        }
        self._m_index_builds = registry.counter(
            "vector_index_builds_total", "ANN index builds/refreshes"
        )
        self._m_index_searches = registry.counter(
            "vector_index_searches_total", "ANN index searches"
        )
        # The fault injector exists before any component that can fail, so
        # a plan passed at construction covers the restore path too.
        self._faults = FaultInjector(
            seed=self._config.faults_seed or self._config.seed, metrics=registry
        )
        self._faults.recorder = self._telemetry.events
        if fault_plan is not None:
            self._faults.load_plan(fault_plan)
        if path is not None:
            self._disk = FileDiskManager(
                self._config.page_size, path=path, injector=self._faults
            )
        else:
            self._disk = InMemoryDiskManager(
                self._config.page_size, injector=self._faults
            )
        self._pool = BufferPool(
            self._disk,
            self._config.buffer_pool_pages,
            policy=_make_policy(self._config.eviction_policy),
            metrics=registry,
            injector=self._faults,
        )
        self._catalog = Catalog(self._pool)
        # Lifecycle tier: the copy-on-write versioned catalog (readers
        # pin immutable generation-stamped snapshots; deploys publish via
        # a single pointer swap) and the deployment state machine behind
        # DEPLOY / ROLLBACK / SHOW DEPLOYMENTS.
        self._lifecycle = ModelCatalog(
            injector=self._faults, recorder=self._telemetry.events
        )
        self._deployments = DeploymentController(self)
        # Rescues the executor performs feed the optimizer's next plan;
        # the ledger survives set_option() planning rebuilds on purpose.
        self._ledger = RecoveryLedger()
        self._caches: dict[str, object] = {}  # model name -> result cache
        self._vector_indexes: dict[str, _VectorIndexEntry] = {}
        self._rwlock = ReadWriteLock()
        self._server = None  # attached ModelServer, if any
        self._cluster = None  # attached ClusterPool, if any
        # The system relations: one (schema, rows) source per SHOW target,
        # read by the planner (FROM sys.<name>; SHOW is sugar for it) and
        # by the diagnostics bundle.
        telemetry = self._telemetry
        self._relations: Relations = {
            "tables": (
                Schema.of(
                    ("name", ColumnType.TEXT),
                    ("columns", ColumnType.INT),
                    ("rows", ColumnType.INT),
                ),
                lambda: sorted(
                    (t.name, len(t.schema), t.row_count)
                    for t in self._catalog.tables()
                ),
            ),
            "models": (
                Schema.of(
                    ("name", ColumnType.TEXT),
                    ("model", ColumnType.TEXT),
                    ("params", ColumnType.INT),
                ),
                lambda: sorted(
                    (r.name, r.model.name, r.model.param_count)
                    for r in self._lifecycle.snapshot().records()
                ),
            ),
            "metrics": (
                METRICS_SCHEMA,
                lambda: telemetry.registry.rows() if telemetry.enabled else [],
            ),
            "stats": (_STAT_SCHEMA, self._system_stats_rows),
            "server": (
                _STAT_SCHEMA,
                lambda: [] if self._server is None else self._server.stats_rows(),
            ),
            "cluster": (
                _STAT_SCHEMA,
                lambda: [] if self._cluster is None else self._cluster.stats_rows(),
            ),
            "audit": (AUDIT_SCHEMA, telemetry.audit.rows),
            "faults": (FAULT_SCHEMA, self._faults.rows),
            "health": (HEALTH_SCHEMA, lambda: collect_health(self).rows()),
            "events": (EVENT_SCHEMA, telemetry.events.rows),
            "timeline": (
                TIMELINE_SCHEMA,
                lambda: timelines(
                    telemetry.events.events(), telemetry.tracer.finished
                ),
            ),
            "slo": (SLO_SCHEMA, telemetry.slo.rows),
            "profile": (PROFILE_SCHEMA, telemetry.profiler.top_rows),
            "deployments": (DEPLOYMENT_SCHEMA, self._deployments.rows),
            "workload": (WORKLOAD_SCHEMA, telemetry.workload.top_rows),
            "workload_detail": (
                WORKLOAD_DETAIL_SCHEMA, telemetry.workload.detail_rows
            ),
        }
        self._rebuild_planning()
        if path is not None:
            self._restore_if_persisted(path)

    def _restore_if_persisted(self, path: str) -> None:
        from .storage import persist

        snapshot = persist.load_sidecar(
            persist.sidecar_path(path),
            injector=self._faults,
            recorder=self._telemetry.events,
        )
        if snapshot is None:
            return
        # Routing state is session-scoped: every restored model serves its
        # base version, and an "m@v" entry comes back as READY version v
        # of model m (or, with no m in the file, as a model of that name).
        for name, model, tables, metadata in persist.restore_catalog(
            self._catalog, snapshot
        ):
            self._compiled_for(model)
            base, version = split_version_name(name)
            if version and self._lifecycle.snapshot().entry(base):
                record = self._lifecycle.add_version(base, version, model)
            else:
                record = self._lifecycle.register_base(name, model)
            record.block_tables.update(tables)
            record.metadata.update(metadata)

    # -- configuration ------------------------------------------------------

    @property
    def config(self) -> SystemConfig:
        return self._config

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def buffer_pool(self) -> BufferPool:
        return self._pool

    @property
    def faults(self) -> FaultInjector:
        """The session's fault injector (arm specs / load plans here)."""
        return self._faults

    @property
    def recovery_ledger(self) -> RecoveryLedger:
        """Rescue counts the optimizer consults (see :mod:`repro.resilience`)."""
        return self._ledger

    def health(self) -> HealthReport:
        """An aggregated resilience snapshot (see :mod:`repro.health`).

        Folds circuit-breaker states, recovery counters, memory-budget
        utilisation, server queue depths, and armed faults into one
        report; also refreshes the ``health_*`` metrics.  The same rows
        back the ``SHOW HEALTH`` SQL statement.
        """
        return collect_health(self)

    # -- telemetry -------------------------------------------------------

    @property
    def telemetry(self) -> Telemetry:
        """The session's telemetry bundle (registry + tracer)."""
        return self._telemetry

    def metrics_text(self) -> str:
        """The metrics registry in the Prometheus text exposition format
        (empty with telemetry disabled: the counters run, export stops)."""
        if not self._telemetry.enabled:
            return ""
        return self._telemetry.registry.render_prometheus()

    def export_trace(self, path: str) -> int:
        """Write recorded query spans as Chrome-trace JSON.

        Load the file at ``chrome://tracing`` or https://ui.perfetto.dev.
        Returns the number of events written (0 with telemetry disabled,
        which still produces a valid empty trace file).
        """
        return self._telemetry.tracer.export_chrome_trace(path)

    def set_slo(
        self,
        model: str,
        latency_ms: float = 0.0,
        error_budget: float = 0.01,
    ) -> None:
        """Declare a per-model service-level objective.

        A served request counts against ``model``'s error budget when it
        fails or finishes slower than ``latency_ms`` (0 disables the
        latency component).  Burn rates over the fast/slow windows back
        ``SHOW SLO``, fold into :meth:`health`, and emit
        ``slo.burn_start`` / ``slo.burn_stop`` flight-recorder events.
        No-op with telemetry disabled.
        """
        self._telemetry.slo.set_policy(model, latency_ms, error_budget)

    def start_profiler(self) -> bool:
        """Start the sampling stage profiler (see ``SHOW PROFILE``).

        Returns False if already running or telemetry is disabled.
        """
        return self._telemetry.profiler.start()

    def stop_profiler(self) -> bool:
        """Stop the sampling stage profiler (samples are kept)."""
        return self._telemetry.profiler.stop()

    def export_profile(self, path: str) -> int:
        """Write the stage profile in collapsed-stack (folded) format.

        One ``frames count`` line per sampled stage, directly consumable
        by ``flamegraph.pl`` or speedscope.  Returns the number of lines
        written (0 with telemetry disabled or nothing sampled, which
        still produces a valid empty file).
        """
        lines = self._telemetry.profiler.collapsed()
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        return len(lines)

    def _system_stats_rows(self) -> list[tuple[str, object]]:
        """Rows for ``SHOW STATS``: one (stat, value) pair per line.

        Sections that depend on an optional facility contribute zero rows
        rather than raising when that facility is off: the ``telemetry.*``
        and ``audit.*`` rows appear only with telemetry enabled, and the
        ``server.*`` rows only while a :class:`~repro.server.ModelServer`
        is attached.
        """
        pool = self._pool.stats
        rows: list[tuple[str, object]] = [
            ("bufferpool.capacity_pages", self._pool.capacity),
            ("bufferpool.resident_pages", self._pool.resident_pages),
            ("bufferpool.pinned_pages", self._pool.pinned_page_count()),
            ("bufferpool.hits", pool.hits),
            ("bufferpool.misses", pool.misses),
            ("bufferpool.hit_rate", round(pool.hit_rate, 6)),
            ("bufferpool.evictions", pool.evictions),
            ("bufferpool.dirty_writebacks", pool.dirty_writebacks),
            ("catalog.tables", len(list(self._catalog.tables()))),
            ("catalog.models", len(self._lifecycle.snapshot().records())),
            ("config.eviction_policy", self._config.eviction_policy),
            ("config.memory_threshold_bytes", self._config.memory_threshold_bytes),
            ("config.telemetry_enabled", self._config.telemetry_enabled),
        ]
        if self._telemetry.enabled:
            rows.extend(
                [
                    (
                        "telemetry.spans_recorded",
                        len(self._telemetry.tracer.finished),
                    ),
                    ("telemetry.spans_dropped", self._telemetry.tracer.dropped),
                    ("telemetry.events_recorded", len(self._telemetry.events)),
                    (
                        "telemetry.events_emitted",
                        self._telemetry.events.emitted_total,
                    ),
                    ("telemetry.events_dropped", self._telemetry.events.dropped),
                    ("audit.records", len(self._telemetry.audit)),
                    ("audit.records_total", self._telemetry.audit.total_recorded),
                    (
                        "audit.mispredictions",
                        len(self._telemetry.audit.mispredictions()),
                    ),
                    ("workload.fingerprints", len(self._telemetry.workload)),
                    (
                        "workload.recorded",
                        self._telemetry.workload.recorded_total,
                    ),
                    ("workload.evicted", self._telemetry.workload.evicted_total),
                    (
                        "workload.regressions",
                        self._telemetry.workload.regressions_total(),
                    ),
                    ("slo.models", len(self._telemetry.slo.policies())),
                    ("profiler.running", self._telemetry.profiler.running),
                    ("profiler.samples", self._telemetry.profiler.sampled),
                ]
            )
        for attached in ("server", "cluster"):
            rows.extend(self._relations[attached][1]())
        if self._faults.active:
            rows.extend(
                [
                    ("faults.armed", self._faults.armed_count),
                    ("faults.injected", self._faults.injected_total),
                    ("faults.retries", self._faults.retry_total),
                    ("faults.recoveries", self._faults.recovery_total),
                ]
            )
        for name, cache in sorted(self._caches.items()):
            stats = cache.stats
            rows.append((f"result_cache.{name}.entries", len(cache)))
            rows.append((f"result_cache.{name}.hits", stats.hits))
            rows.append((f"result_cache.{name}.misses", stats.misses))
            rows.append((f"result_cache.{name}.hit_rate", round(stats.hit_rate, 6)))
        for name, entry in sorted(self._vector_indexes.items()):
            rows.append((f"vector_index.{name}.kind", entry.kind))
            rows.append((f"vector_index.{name}.vectors", len(entry.rids)))
        return rows

    def set_option(self, name: str, value: object) -> None:
        """Change a planning option (e.g. ``memory_threshold_bytes``).

        Invalidates pre-compiled plans, since representation choices may
        change.  Only options the planning objects read can change here;
        any other name raises :class:`ConfigError` (pass it to the
        constructor instead).
        """
        if not name.startswith(_PLANNING_OPTIONS):
            raise ConfigError(
                f"set_option cannot change {name!r}: only planning options "
                "can change on a live Database"
            )
        with self._rwlock.write():
            self._config = self._config.with_options(**{name: value})
            self._rebuild_planning()
            for record in self._lifecycle.snapshot().records():
                self._compiled_for(record.model)

    def _rebuild_planning(self) -> None:
        self._plans: dict[Model, CompiledModel] = {}
        self._optimizer = RuleBasedOptimizer(
            self._config, telemetry=self._telemetry, ledger=self._ledger
        )
        self._compiler = AotCompiler(
            self._config, telemetry=self._telemetry, ledger=self._ledger
        )
        self._executor = self._make_executor()
        self._planner = Planner(
            self._catalog,
            predict_fn=lambda name, features, proba_class: self._predict(
                name, features, proba_class
            )[0],
            telemetry=self._telemetry,
            has_model=self._has_model,
            relations=self._relations,
        )

    def _make_executor(
        self, dl_budget: MemoryBudget | None = None
    ) -> HybridExecutor:
        return HybridExecutor(
            self._catalog,
            self._config,
            dl_budget=dl_budget,
            telemetry=self._telemetry,
            injector=self._faults,
            ledger=self._ledger,
        )

    def _has_model(self, name: str) -> bool:
        return self._lifecycle.snapshot().entry(name.lower()) is not None

    def _compiled_for(self, model: Model) -> CompiledModel:
        """The model's AoT plans: a cache derived from the model, the
        config (dropped on ``set_option``) and the ledger generation.

        Runtime rescues advance the ledger's per-model generation; a
        stale compilation re-plans here so the rescued operator is
        lowered up-front instead of failing (and being rescued) again.
        """
        compiled = self._plans.get(model)
        if (
            compiled is None
            or compiled.ledger_generation != self._ledger.generation(model.name)
        ):
            with self._telemetry.tracer.span(
                f"compile:{model.name}", category="optimizer"
            ):
                compiled = self._plans[model] = self._compiler.compile(model)
        return compiled

    # -- SQL ------------------------------------------------------------

    def execute(self, sql: str) -> Cursor:
        """Parse and execute one SQL statement.

        With telemetry enabled the statement runs under nested
        ``query -> parse / plan / execute`` spans and the returned
        cursor's ``stats`` holds the per-query counter deltas.
        """
        telemetry = self._telemetry
        if not telemetry.enabled:
            stmt = parse(sql)
            with self._statement_lock(stmt):
                return self._execute_statement(stmt)
        tracer = telemetry.tracer
        pool = self._pool.stats
        pool_before = (pool.hits, pool.misses, pool.evictions)
        cache_before = self._cache_totals()
        engine_before = self._executor._m_engine_seconds.value
        stage_before = {
            rep: counter.value
            for rep, counter in self._executor._m_stage_runs.items()
        }
        audit_marker = telemetry.audit.marker()
        start = time.perf_counter()
        with tracer.span("query", category="sql", sql=sql.strip()[:200]) as query_span:
            with tracer.span("parse", category="sql"):
                stmt, shape = STATEMENTS.parse(sql)
            with self._statement_lock(stmt):
                if isinstance(stmt, sql_ast.Select):
                    op = self._planner.plan_select(stmt)  # emits the "plan" span
                    with tracer.span("execute", category="sql", statement="Select"):
                        cursor = Cursor(op.schema.names, list(op))
                else:
                    with tracer.span(
                        "execute", category="sql", statement=type(stmt).__name__
                    ):
                        cursor = self._execute_statement(stmt)
        elapsed = time.perf_counter() - start
        self._m_queries.inc()
        self._m_query_seconds.observe(elapsed)
        cache_after = self._cache_totals()
        representations = {
            rep.value: int(counter.value - stage_before[rep])
            for rep, counter in self._executor._m_stage_runs.items()
            if counter.value > stage_before[rep]
        }
        cursor.stats = QueryStats(
            sql=sql,
            statement=type(stmt).__name__,
            rows=len(cursor.rows),
            elapsed_seconds=elapsed,
            pool_hits=pool.hits - pool_before[0],
            pool_misses=pool.misses - pool_before[1],
            pool_evictions=pool.evictions - pool_before[2],
            cache_hits=cache_after[0] - cache_before[0],
            cache_misses=cache_after[1] - cache_before[1],
            engine_seconds=self._executor._m_engine_seconds.value - engine_before,
            representations=representations,
            stage_audits=telemetry.audit.records_since(audit_marker),
            trace_id=query_span.trace_id,
        )
        telemetry.workload.record(
            stmt, cursor.stats, shape.fingerprint if shape is not None else None
        )
        return cursor

    def _statement_lock(self, stmt: sql_ast.Statement):
        """Read lock for queries, write lock for DDL/DML (the contract)."""
        if isinstance(stmt, _READ_STATEMENTS + _LIFECYCLE_STATEMENTS):
            return self._rwlock.read()
        return self._rwlock.write()

    def _cache_totals(self) -> tuple[int, int]:
        hits = misses = 0
        for cache in self._caches.values():
            hits += cache.stats.hits
            misses += cache.stats.misses
        return hits, misses

    def _execute_statement(self, stmt: sql_ast.Statement) -> Cursor:
        if isinstance(stmt, sql_ast.CreateTable):
            schema = Schema.of(*stmt.columns)
            self._catalog.create_table(stmt.name, schema)
            return Cursor((), [])
        if isinstance(stmt, sql_ast.DropTable):
            self._catalog.drop_table(stmt.name)
            return Cursor((), [])
        # Writes are validate-then-apply: every row is produced and coerced
        # before the first insert, so a bad row leaves the table unchanged
        # and INSERT ... SELECT never reads the pages it is appending.
        if isinstance(stmt, sql_ast.Insert):
            info = self._catalog.get_table(stmt.table)
            _append_rows(info, [info.schema.coerce_row(row) for row in stmt.rows])
            return Cursor((), [])
        if isinstance(stmt, sql_ast.InsertSelect):
            info = self._catalog.get_table(stmt.table)
            op = self._planner.plan_select(stmt.query)
            if len(op.schema) != len(info.schema):
                raise SqlError(
                    f"INSERT INTO {stmt.table}: query yields "
                    f"{len(op.schema)} columns, table has {len(info.schema)}"
                )
            _append_rows(info, [info.schema.coerce_row(row) for row in op])
            return Cursor((), [])
        if isinstance(stmt, sql_ast.CreateTableAs):
            op = self._planner.plan_select(stmt.query)
            rows = [op.schema.coerce_row(row) for row in op]
            _append_rows(self._catalog.create_table(stmt.name, op.schema), rows)
            return Cursor((), [])
        if isinstance(stmt, sql_ast.Update):
            info = self._catalog.get_table(stmt.table)
            schema = info.schema
            predicate = (
                stmt.where.bind(schema) if stmt.where is not None else None
            )
            bound = [
                (schema.index_of(col), expr.bind(schema))
                for col, expr in stmt.assignments
            ]
            changed = []
            for rid, row in info.heap.scan():
                if predicate is not None and not predicate.eval(row):
                    continue
                new_row = list(row)
                for idx, expr in bound:
                    new_row[idx] = expr.eval(row)
                changed.append((rid, schema.coerce_row(new_row)))
            # Updates are delete + re-insert (slotted pages do not resize
            # records in place); row identity is not stable across UPDATE.
            for rid, new_row in changed:
                info.heap.delete(rid)
                info.row_count -= 1
                _append_rows(info, (new_row,))
            return Cursor(("updated",), [(len(changed),)])
        if isinstance(stmt, sql_ast.Delete):
            info = self._catalog.get_table(stmt.table)
            predicate = (
                stmt.where.bind(info.schema) if stmt.where is not None else None
            )
            victims = [
                rid
                for rid, row in info.heap.scan()
                if predicate is None or predicate.eval(row)
            ]
            for rid in victims:
                info.heap.delete(rid)
                info.row_count -= 1
            return Cursor(("deleted",), [(len(victims),)])
        if isinstance(stmt, sql_ast.UnionAll):
            from .relational.operators import Concat

            ops = [self._planner.plan_select(q) for q in stmt.queries]
            op = Concat(ops)
            return Cursor(op.schema.names, list(op))
        if isinstance(stmt, sql_ast.Explain):
            lines = (
                self._analyze_select(stmt.query)[1].split("\n")
                if stmt.analyze
                else self._explain(stmt.query)
            )
            return Cursor(("plan",), [(line,) for line in lines])
        if isinstance(stmt, sql_ast.Select):
            op = self._planner.plan_select(stmt)
            return Cursor(op.schema.names, list(op))
        if isinstance(stmt, sql_ast.DeployModel):
            dep = self._deployments.deploy(
                stmt.model,
                stmt.version,
                canary_percent=stmt.canary_percent,
                shadow=stmt.shadow,
            )
            return Cursor(DEPLOYMENT_COLUMNS, [dep.as_row()])
        if isinstance(stmt, sql_ast.RollbackModel):
            dep = self._deployments.rollback(stmt.model)
            return Cursor(DEPLOYMENT_COLUMNS, [dep.as_row()])
        raise SqlError(f"unsupported statement type {type(stmt).__name__}")

    def explain_analyze(self, sql: str) -> tuple[Cursor, str]:
        """Execute a SELECT with per-operator instrumentation.

        Accepts a SELECT (optionally already wrapped in ``EXPLAIN
        ANALYZE``).  Returns ``(cursor, report)`` where the report
        annotates every plan node with the rows it produced and its
        inclusive time, and — for PREDICT queries — every inference
        stage with its representation, rows, wall time, and estimated vs
        actual peak memory.
        """
        return self._analyze_select(_explained(sql, analyze=True))

    def _analyze_select(self, stmt: sql_ast.Select) -> tuple[Cursor, str]:
        """Run one SELECT instrumented; returns (result cursor, report)."""
        from .relational.operators.instrument import instrument

        op = self._planner.plan_select(stmt)
        report = instrument(op)
        audit = self._telemetry.audit
        marker = audit.marker()
        cursor = Cursor(op.schema.names, list(op))
        lines = report.render(op).split("\n")
        models = predict_models(stmt)
        if models:
            lines.extend(
                _render_inference_stages(
                    models, audit.records_since(marker), audit.enabled
                )
            )
        return cursor, "\n".join(lines)

    def explain(self, sql: str) -> str:
        """The physical plan, including per-operator representations.

        Accepts a SELECT (optionally already wrapped in ``EXPLAIN``), and
        so any SHOW form, which parses to one; any other statement raises
        :class:`SqlError`.
        """
        return "\n".join(self._explain(_explained(sql, analyze=False)))

    def _explain(self, stmt: sql_ast.Select) -> list[str]:
        op = self._planner.plan_select(stmt)
        lines = op.explain().split("\n")
        for model in predict_models(stmt):
            compiled = self._compiled_for(self.model_info(model).model)
            plan = compiled.select(self._config.default_batch_size)
            lines.append("")
            lines.extend(plan.explain().split("\n"))
        return lines

    # -- bulk loading ----------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> None:
        with self._rwlock.write():
            self._catalog.create_table(name, schema)

    def load_rows(self, table: str, rows: Sequence[tuple]) -> int:
        """Bulk-insert pre-validated rows (faster than INSERT statements);
        a value that cannot be stored raises :class:`SchemaError`."""
        with self._rwlock.write():
            return _append_rows(self._catalog.get_table(table), rows)

    # -- models -----------------------------------------------------------

    def register_model(self, model: Model, name: str | None = None) -> str:
        """Register a model and AoT-compile its plans (Sec. 2)."""
        model_name = (name or model.name).lower()
        with self._rwlock.write():
            self._compiled_for(model)
            self._lifecycle.register_base(model_name, model)
        return model_name

    def register_model_version(
        self,
        name: str,
        version: str,
        model: Model | None = None,
        quantize_bits: int | None = None,
        prune_sparsity: float | None = None,
    ) -> str:
        """Prepare a new version of a registered model, off the write lock.

        Compiles the version concurrently with serving (the whole prepare
        path runs without the database write lock) and publishes it as a
        READY record through the copy-on-write lifecycle catalog.  The
        version takes no traffic until ``DEPLOY MODEL``.

        Give either an explicit ``model`` or one of ``quantize_bits`` /
        ``prune_sparsity`` to derive the version from the serving weights.
        Returns the version's name (``"name@version"``), which every
        name-taking method resolves to exactly this version.
        """
        model_name, version = name.lower(), version.lower()
        self._faults.fire(
            "lifecycle.prepare", model=model_name, version=version
        )
        if model is None:
            from .dedup.versions import derive_version

            model = derive_version(
                self.model_info(model_name).model,
                quantize_bits=quantize_bits,
                prune_sparsity=prune_sparsity,
            )
        self._compiled_for(model)
        record = self._lifecycle.add_version(model_name, version, model)
        self._telemetry.events.emit(
            "deploy.prepare", model=model_name, version=version, key=record.name
        )
        return record.name

    def deploy_model(
        self,
        name: str,
        version: str,
        canary_percent: float | None = None,
        shadow: bool = False,
    ):
        """Programmatic ``DEPLOY MODEL`` (see :mod:`repro.lifecycle`)."""
        return self._deployments.deploy(
            name, version, canary_percent=canary_percent, shadow=shadow
        )

    def rollback_model(self, name: str, reason: str = "manual"):
        """Programmatic ``ROLLBACK MODEL``."""
        return self._deployments.rollback(name, reason=reason)

    @property
    def lifecycle(self) -> ModelCatalog:
        """The copy-on-write versioned model catalog."""
        return self._lifecycle

    @property
    def deployments(self) -> DeploymentController:
        """The deployment state machine driving DEPLOY/ROLLBACK."""
        return self._deployments

    def _on_routing_changed(self, name: str) -> None:
        # Serving re-pointed to a different version: the result cache was
        # filled by the old one, so drop it rather than risk (or appear to
        # risk) serving stale-version outputs.
        self._caches.pop(name.lower(), None)

    def model_info(self, name: str) -> VersionRecord:
        """The version record ``name`` resolves to right now: the serving
        version of model ``"m"``, or the explicit version ``"m@v"``."""
        return self._lifecycle.snapshot().resolve(name)

    def inference_plan(
        self, name: str, batch_size: int, force: Representation | str | None = None
    ) -> InferencePlan:
        """The plan PREDICT would use for this model and batch size."""
        return self._plan(self.model_info(name).model, batch_size, force)

    def _plan(
        self, model: Model, batch_size: int, force: Representation | str | None
    ) -> InferencePlan:
        if force is not None:
            plan = self._optimizer.plan_model(model, batch_size, force=force)
        else:
            plan = self._compiled_for(model).select(batch_size)
        for stage in plan.stages:
            self._m_plan_selections[stage.representation].inc()
        return plan

    def predict(
        self,
        name: str,
        features: np.ndarray,
        force: Representation | str | None = None,
        dl_budget: MemoryBudget | None = None,
    ) -> EngineResult:
        """Run inference through the adaptive (or forced) plan."""
        with self._rwlock.read():
            return self._run(self.model_info(name), features, force, dl_budget)

    def _run(
        self,
        record: VersionRecord,
        features: np.ndarray,
        force: Representation | str | None = None,
        dl_budget: MemoryBudget | None = None,
    ) -> EngineResult:
        """Execute one version in-process; callers hold the read lock."""
        plan = self._plan(record.model, features.shape[0], force)
        executor = (
            self._executor if dl_budget is None else self._make_executor(dl_budget)
        )
        return executor.execute(plan, features, record)

    def predict_labels(self, name: str, features: np.ndarray) -> np.ndarray:
        """Class labels for a feature batch (result cache honoured).

        The batched entry point the serving tier uses: one call, one
        engine invocation, one label per input row.  Runs under the
        database read lock, so it is safe to call from many threads
        concurrently with SELECT/PREDICT queries.
        """
        return self._predict(name, features)[0]

    def predict_labels_v(
        self, name: str, features: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Like :meth:`predict_labels`, also returning the generation of
        the lifecycle snapshot the call was served from."""
        return self._predict(name, features)

    # -- vector indexes (Sec. 5.1 / the Sec. 6.3 retrieval engine) --------

    def create_vector_index(
        self,
        index_name: str,
        table: str,
        column: str,
        kind: str = "hnsw",
    ) -> int:
        """Build an ANN index over a BLOB vector column.

        Every row's BLOB is interpreted as a float64 vector; all vectors
        must share one dimension.  Returns the number of vectors indexed.
        The index is a snapshot — call :meth:`refresh_vector_index` after
        bulk loads.  This is the paper's Sec. 6.3 scenario: the RDBMS as
        a high-performance retrieval engine (e.g. for augmenting LLM
        inference), with HNSW/LSH/IVF indexing borrowed from vector
        databases.
        """
        with self._rwlock.write():
            key = index_name.lower()
            if key in self._vector_indexes:
                raise CatalogError(f"vector index {index_name!r} already exists")
            info = self._catalog.get_table(table)
            col_idx = info.schema.index_of(column)
            if info.schema[col_idx].ctype.value != "BLOB":
                raise SqlError(
                    f"vector index requires a BLOB column, got {column!r}"
                )
            entry = _VectorIndexEntry(table=info.name, column=column, kind=kind)
            count = self._build_vector_index(entry)
            self._vector_indexes[key] = entry
            return count

    def refresh_vector_index(self, index_name: str) -> int:
        """Rebuild an index from the current table contents."""
        with self._rwlock.write():
            entry = self._vector_index_entry(index_name)
            return self._build_vector_index(entry)

    def vector_search(self, index_name: str, query: np.ndarray, k: int = 1) -> Cursor:
        """k-NN over an indexed column; returns the matching rows plus a
        trailing ``__distance`` column, nearest first."""
        with self._rwlock.read():
            return self._vector_search(index_name, query, k)

    def _vector_search(
        self, index_name: str, query: np.ndarray, k: int = 1
    ) -> Cursor:
        entry = self._vector_index_entry(index_name)
        if entry.index is None:
            raise CatalogError(f"vector index {index_name!r} was never built")
        self._m_index_searches.inc()
        with self._telemetry.tracer.span(
            f"vector-search:{index_name}", category="index", k=k
        ):
            result = entry.index.search(np.asarray(query, dtype=np.float64), k=k)
        info = self._catalog.get_table(entry.table)
        rows = []
        for vid, dist in zip(result.ids, result.distances):
            if vid < 0:
                continue
            rows.append(info.heap.fetch(entry.rids[int(vid)]) + (float(dist),))
        return Cursor(tuple(info.schema.names) + ("__distance",), rows)

    def _vector_index_entry(self, index_name: str) -> "_VectorIndexEntry":
        entry = self._vector_indexes.get(index_name.lower())
        if entry is None:
            raise CatalogError(f"no vector index named {index_name!r}")
        return entry

    def _make_index(self, kind: str, dim: int, what: str, **hnsw_options):
        from .indexes import FlatIndex, HnswIndex, IvfIndex, LshIndex

        makers = {
            "hnsw": lambda: HnswIndex(dim, seed=self._config.seed, **hnsw_options),
            "lsh": lambda: LshIndex(dim, seed=self._config.seed),
            "ivf": lambda: IvfIndex(dim, seed=self._config.seed),
            "flat": lambda: FlatIndex(dim),
        }
        if kind not in makers:
            raise SqlError(
                f"unknown {what} {kind!r}; expected one of {sorted(makers)}"
            )
        return makers[kind]()

    def _build_vector_index(self, entry: "_VectorIndexEntry") -> int:
        info = self._catalog.get_table(entry.table)
        col_idx = info.schema.index_of(entry.column)
        vectors = []
        rids = []
        for rid, row in info.heap.scan():
            payload = row[col_idx]
            if payload is None:
                continue
            if len(payload) % 8:
                raise SqlError(
                    f"table {entry.table!r} column {entry.column!r} holds a "
                    f"{len(payload)}-byte BLOB, which is not whole float64 values"
                )
            vectors.append(np.frombuffer(payload, dtype=np.float64))
            rids.append(rid)
        if not vectors:
            raise SqlError(
                f"table {entry.table!r} has no vectors in column {entry.column!r}"
            )
        dims = {v.shape[0] for v in vectors}
        if len(dims) != 1:
            raise SqlError(
                f"column {entry.column!r} holds vectors of mixed dimensions {sorted(dims)}"
            )
        index = self._make_index(entry.kind, dims.pop(), "vector index kind")
        with self._telemetry.tracer.span(
            f"vector-build:{entry.kind}", category="index", vectors=len(rids)
        ):
            index.add(np.vstack(vectors))
        entry.index = index
        entry.rids = rids
        self._m_index_builds.inc()
        self._telemetry.registry.gauge(
            "vector_index_vectors", "Vectors held per ANN index", kind=entry.kind
        ).set(len(rids))
        return len(rids)

    # -- result caching (Sec. 5.1) ---------------------------------------

    def enable_result_cache(
        self,
        name: str,
        distance_threshold: float,
        index: str = "hnsw",
        exact: bool = False,
    ) -> None:
        """Serve this model's PREDICT calls through a result cache.

        ``exact=True`` uses hash-keyed exact caching (no accuracy loss,
        only byte-identical repeats hit); otherwise an ANN index
        (``"hnsw"``, ``"lsh"``, ``"ivf"``, or ``"flat"``) answers queries
        within ``distance_threshold``.  Cache entries are persisted into a
        catalog table, making the cache an ordinary managed relation.
        """
        from .serving.result_cache import ExactResultCache, InferenceResultCache

        with self._rwlock.write():
            info = self.model_info(name)
            model = info.model
            wiring = {
                "metrics": self._telemetry.registry,
                "injector": self._faults,
                "recorder": self._telemetry.events,
            }
            if exact:
                self._caches[info.model_name] = ExactResultCache(model, **wiring)
                return
            dim = int(np.prod(model.input_shape))
            self._caches[info.model_name] = InferenceResultCache(
                model,
                self._make_index(index, dim, "cache index", m=8, ef_search=16),
                distance_threshold=distance_threshold,
                catalog=self._catalog,
                table_name=f"__cache_{info.model_name}",
                **wiring,
            )

    def disable_result_cache(self, name: str) -> None:
        with self._rwlock.write():
            self._caches.pop(name.lower(), None)

    def result_cache(self, name: str):
        """The model's active cache object (None if caching is disabled)."""
        return self._caches.get(name.lower())

    def _predict(
        self,
        name: str,
        features: np.ndarray,
        proba_class: int | None = None,
        execute=None,
    ) -> tuple[np.ndarray, int]:
        """The one predict path: ``(labels, generation served from)``.

        Pins one immutable snapshot for the whole call, so every response
        is attributable to exactly one published generation even while a
        deploy/rollback swaps routing concurrently.  ``execute(record,
        features)`` runs one version; the default runs it in-process, the
        server passes the cluster pool's ``predict`` instead.
        """
        if execute is None:
            def execute(record, feats):
                return self._run_labels(record, feats, proba_class)

        snapshot = self._lifecycle.snapshot()
        entry = snapshot.entry(name.lower())
        if entry is None or proba_class is not None:
            # An explicit "m@v" pins that version; probability outputs
            # are served by the stable version only (no canary slice:
            # scores are not comparable label-wise).
            labels = execute(snapshot.resolve(name), features)
        else:
            labels = routed_predict(self._deployments, entry, features, execute)
        return labels, snapshot.generation

    def _run_labels(
        self, record: VersionRecord, features: np.ndarray, proba_class: int | None
    ) -> np.ndarray:
        with self._rwlock.read():
            if proba_class is not None:
                # Probability outputs bypass the result cache (it stores
                # labels).
                scores = self._run(record, features).outputs
                if not 0 <= proba_class < scores.shape[-1]:
                    raise SqlError(
                        f"PREDICT_PROBA class {proba_class} out of range for "
                        f"model {record.name!r} with {scores.shape[-1]} outputs"
                    )
                return scores[:, proba_class]
            cache = self._caches.get(record.model_name)
            if cache is not None and cache.model is record.model:
                return cache.serve(features)[0]
            return np.argmax(self._run(record, features).outputs, axis=-1)

    # -- serving ---------------------------------------------------------

    def serve(
        self, *, cluster_workers: int | None = None, **options: object
    ) -> "ModelServer":
        """Start the concurrent serving front-end for this database.

        Returns a :class:`~repro.server.ModelServer` whose ``submit``
        accepts point PREDICT requests from many client threads,
        coalesces them via dynamic micro-batching, and executes them
        through the hybrid engine under the database read lock.
        ``options`` are passed through to the server and take its
        defaults: ``workers``, ``max_batch_size``, ``max_queue_delay_ms``,
        ``queue_capacity``, ``default_deadline_ms``, ``retry_limit``,
        ``retry_backoff_ms``.
        At most one server may be attached at a time; ``SHOW SERVER``
        reports the attached server's live state.  Close the server
        (or this database) to detach it.

        ``cluster_workers`` (default: ``config.cluster_workers``) opts
        into the process-parallel tier: batches execute on N worker
        *processes* behind a :class:`~repro.cluster.ClusterPool` (models
        sharded by consistent hashing, tensors crossing via shared
        memory) instead of in this process.  ``workers`` still sets the
        *thread* count of the front-end; with a cluster attached it
        defaults to at least the worker-process count so every process
        stays busy.  ``cluster_workers=0`` is the plain thread path.
        With a cluster, ``serve`` returns only once every worker process
        is ready.
        """
        from .server import ModelServer

        if self._server is not None:
            raise ReproError(
                "a ModelServer is already attached to this database; "
                "close it before starting another"
            )
        n_cluster = int(
            cluster_workers
            if cluster_workers is not None
            else self._config.cluster_workers
        )
        pool = None
        if n_cluster > 0:
            from .cluster import ClusterPool

            pool = ClusterPool(self, workers=n_cluster)
        try:
            if pool is not None:
                pool.wait_ready()
            server = ModelServer(self, cluster=pool, **options)
        except BaseException:
            if pool is not None:
                pool.close()
            raise
        self._server = server
        if pool is not None:
            self._cluster = pool
        return server

    def _detach_server(self, server: "ModelServer") -> None:
        if self._server is server:
            self._server = None

    # -- diagnostics -----------------------------------------------------

    def dump_diagnostics(
        self, path: str, reason: str = "requested",
        error: BaseException | None = None,
    ) -> str:
        """Write one postmortem diagnostics bundle (JSON) to ``path``.

        The bundle captures the effective config, a metrics snapshot, the
        health report, breaker states, the recovery ledger, armed faults
        (with the injector seed, so chaos failures replay), the last-N
        flight-recorder events, and the last-N finished spans.  See
        :mod:`repro.telemetry.diagnostics` for the schema and
        ``validate_bundle`` for the checker CI runs against it.
        """
        from .telemetry import diagnostics

        bundle = diagnostics.build_bundle(self, reason=reason, error=error)
        return diagnostics.write_bundle(bundle, path)

    def _maybe_dump_diagnostics(
        self, reason: str, error: BaseException | None = None
    ) -> str | None:
        """Auto-dump a bundle into ``config.diagnostics_dir`` (if set).

        Called from failure paths (e.g. the serving worker's
        unhandled-error handler); best-effort — a diagnostics failure must
        never mask the original error, so everything is swallowed.
        """
        directory = self._config.diagnostics_dir
        if not directory:
            return None
        try:
            stamp = int(time.time() * 1e3)
            name = f"diagnostics-{reason.replace('.', '-')}-{stamp}.json"
            return self.dump_diagnostics(
                os.path.join(directory, name), reason=reason, error=error
            )
        except Exception:
            return None

    # -- lifecycle -----------------------------------------------------------

    def close(
        self,
        diagnostics_path: str | None = None,
        drain_timeout_s: float | None = None,
    ) -> int:
        """Close the database, optionally dumping a diagnostics bundle.

        ``diagnostics_path`` writes a postmortem bundle (see
        :meth:`dump_diagnostics`) before any subsystem shuts down, so the
        bundle still sees the attached server and live telemetry.

        An attached server (and cluster pool) is *drained* first — new
        submissions stop, in-flight and queued requests get up to
        ``drain_timeout_s`` (default: ``config.lifecycle_drain_timeout_s``)
        to finish — and only then torn down.  Returns the number of
        requests abandoned by the drain deadline (0 on a clean close);
        abandoned requests fail with ``ServerClosedError`` and are
        reported via a ``server.drain_abandoned`` flight-recorder event
        instead of dying opaquely mid-teardown.
        """
        if diagnostics_path is not None:
            self.dump_diagnostics(diagnostics_path, reason="close")
        self._telemetry.profiler.stop()
        abandoned = 0
        if self._server is not None:
            abandoned = self._server.close(drain_timeout_s=drain_timeout_s)
        if self._cluster is not None:
            self._cluster.close()
        if self._path is not None:
            from .storage import persist

            block_shape = (
                self._config.tensor_block_rows,
                self._config.tensor_block_cols,
            )
            # Durability order matters: serialize may still write block
            # tables, so every dirty page must be flushed *and fsynced*
            # before the sidecar that references those pages is
            # committed.  The old order (sidecar first) could commit a
            # catalog pointing at pages a crash never wrote.
            snapshot = persist.serialize_catalog(
                self._catalog, block_shape, self._lifecycle.snapshot().records()
            )
            self._pool.flush_all()
            self._disk.sync()
            persist.save_sidecar(
                persist.sidecar_path(self._path),
                snapshot,
                injector=self._faults,
                recorder=self._telemetry.events,
            )
        # Free the frames and (in memory) the pages now, not when the
        # cyclic GC gets to this database.
        self._pool.discard_all()
        self._disk.close()
        return abandoned

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
