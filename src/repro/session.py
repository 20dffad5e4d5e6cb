"""The public entry point: an embedded database that serves DL models.

:class:`Database` wires the storage engine to three parts — the
statements (:mod:`repro.session_statements`), the models
(:mod:`repro.session_models`) and the system relations
(:mod:`repro.session_relations`) — and is a facade over them::

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

from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, SystemConfig
from .core.ir import InferencePlan, Representation
from .dlruntime.layers import Model
from .dlruntime.memory import MemoryBudget
from .engines.base import EngineResult
from .errors import ConfigError, ReproError
from .faults import FaultInjector, FaultPlan
from .health import HealthReport
from .health import collect as collect_health
from .lifecycle import DeploymentController, ModelCatalog
from .relational.schema import Schema
from .resilience import RecoveryLedger
from .server.locks import ReadWriteLock
from .session_models import Models
from .session_relations import CLUSTER_POOLS, system_relations
from .session_statements import Cursor, Statements, append_rows
from .storage.buffer_pool import BufferPool, ClockPolicy, LruPolicy, TwoQueuePolicy
from .storage.catalog import Catalog, VersionRecord
from .storage.disk import FileDiskManager, InMemoryDiskManager
from .telemetry import Telemetry

#: What ``set_option`` may change on a live database: the fields (or
#: field-name prefixes) read by the optimizer, compiler and executor
#: that ``Models.rebuild`` rebuilds.  Everything else — page size, buffer
#: pool, telemetry, cluster — is fixed once the Database is built.
_PLANNING_OPTIONS = ("memory_threshold_bytes", "dl_memory_limit_bytes",
                     "tensor_block_", "resilience_", "breaker_")

_POLICIES = {"clock": ClockPolicy, "2q": TwoQueuePolicy}


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
        self._config = config = (
            base.with_options(**config_overrides) if config_overrides else base
        )
        self._path = path
        self._telemetry = telemetry = Telemetry(
            enabled=config.telemetry_enabled,
            max_spans=config.telemetry_max_spans,
            page_size=config.page_size,
            slo_min_samples=config.slo_min_samples,
            profiler_interval_ms=config.profiler_interval_ms,
        )
        if config.profiler_enabled:
            telemetry.profiler.start()
        # The fault injector exists before any component that can fail, so
        # a plan passed at construction covers the restore path too.
        self._faults = FaultInjector(
            seed=config.faults_seed or config.seed, metrics=telemetry.registry
        )
        self._faults.recorder = telemetry.events
        if fault_plan is not None:
            self._faults.load_plan(fault_plan)
        if path is not None:
            self._disk = FileDiskManager(config.page_size, path=path, injector=self._faults)
        else:
            self._disk = InMemoryDiskManager(config.page_size, injector=self._faults)
        self._pool = BufferPool(
            self._disk,
            config.buffer_pool_pages,
            policy=_POLICIES.get(config.eviction_policy, LruPolicy)(),
            metrics=telemetry.registry,
            injector=self._faults,
        )
        self._catalog = Catalog(self._pool)
        # Lifecycle tier: the copy-on-write versioned catalog (readers
        # pin immutable generation-stamped snapshots; deploys publish via
        # a single pointer swap) and the deployment state machine behind
        # DEPLOY / ROLLBACK / SHOW DEPLOYMENTS.
        self._lifecycle = ModelCatalog(injector=self._faults, recorder=telemetry.events)
        self._deployments = DeploymentController(
            self._lifecycle, config, telemetry.events, telemetry.slo
        )
        # Rescues the executor performs feed the optimizer's next plan;
        # the ledger survives set_option() planning rebuilds on purpose.
        self._ledger = RecoveryLedger()
        self._rwlock = ReadWriteLock()
        self._server = None  # attached ModelServer, if any
        self._models = Models(
            config, self._catalog, self._lifecycle, self._deployments,
            telemetry, self._faults, self._ledger, self._rwlock,
        )
        self._relations = system_relations(self)
        self._statements = Statements(
            self._catalog, self._models, self._relations, telemetry,
            self._pool, self._rwlock,
        )
        if path is not None:
            from .storage import persist

            snapshot = persist.load_sidecar(
                persist.sidecar_path(path), injector=self._faults, recorder=telemetry.events
            )
            if snapshot is not None:
                for restored in persist.restore_catalog(self._catalog, snapshot):
                    self._models.restore(*restored)

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
        cluster = CLUSTER_POOLS.get(self)
        return collect_health(self, self._models.executor, self._server, cluster)

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
            self._models.rebuild(self._config)

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
        return self._telemetry.profiler.export(path)

    # -- SQL ------------------------------------------------------------

    def execute(self, sql: str) -> Cursor:
        """Parse and execute one SQL statement.

        The statement runs under nested ``query -> parse / plan /
        execute`` spans; with telemetry enabled the returned cursor's
        ``stats`` holds the per-query counter deltas.
        """
        return self._statements.execute(sql)

    def explain_analyze(self, sql: str) -> tuple[Cursor, str]:
        """Execute a SELECT with per-operator instrumentation.

        Accepts a SELECT (optionally already wrapped in ``EXPLAIN
        ANALYZE``).  Returns ``(cursor, report)`` where the report
        annotates every plan node with the rows it produced and its
        inclusive time, and — for PREDICT queries — every inference
        stage with its representation, rows, wall time, and estimated vs
        actual peak memory.
        """
        return self._statements.explain_analyze(sql)

    def explain(self, sql: str) -> str:
        """The physical plan, including per-operator representations.

        Accepts a SELECT (optionally already wrapped in ``EXPLAIN``), and
        so any SHOW form, which parses to one; any other statement raises
        :class:`SqlError`.
        """
        return self._statements.explain(sql)

    # -- bulk loading ----------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> None:
        with self._rwlock.write():
            self._catalog.create_table(name, schema)

    def load_rows(self, table: str, rows: Sequence[tuple]) -> int:
        """Bulk-insert pre-validated rows (faster than INSERT statements);
        a value that cannot be stored raises :class:`SchemaError`."""
        with self._rwlock.write():
            return append_rows(self._catalog.get_table(table), rows)

    # -- models -----------------------------------------------------------

    def register_model(self, model: Model, name: str | None = None) -> str:
        """Register a model and AoT-compile its plans (Sec. 2)."""
        return self._models.register(model, name)

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
        return self._models.register_version(
            name, version, model, quantize_bits, prune_sparsity
        )

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

    def model_info(self, name: str) -> VersionRecord:
        """The version record ``name`` resolves to right now: the serving
        version of model ``"m"``, or the explicit version ``"m@v"``."""
        return self._models.resolve(name)

    def inference_plan(
        self, name: str, batch_size: int, force: Representation | str | None = None
    ) -> InferencePlan:
        """The plan PREDICT would use for this model and batch size."""
        return self._models.plan(self.model_info(name).model, batch_size, force)

    def predict(
        self,
        name: str,
        features: np.ndarray,
        force: Representation | str | None = None,
        dl_budget: MemoryBudget | None = None,
    ) -> EngineResult:
        """Run inference through the adaptive (or forced) plan."""
        return self._models.predict(name, features, force, dl_budget)

    def predict_labels(self, name: str, features: np.ndarray) -> np.ndarray:
        """Class labels for a feature batch (result cache honoured).

        The batched entry point the serving tier uses: one call, one
        engine invocation, one label per input row.  Runs under the
        database read lock, so it is safe to call from many threads
        concurrently with SELECT/PREDICT queries.
        """
        return self._models.labels(name, features)[0]

    def predict_labels_v(
        self, name: str, features: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Like :meth:`predict_labels`, also returning the generation of
        the lifecycle snapshot the call was served from."""
        return self._models.labels(name, features)

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
        return self._models.create_index(index_name, table, column, kind)

    def refresh_vector_index(self, index_name: str) -> int:
        """Rebuild an index from the current table contents."""
        return self._models.refresh_index(index_name)

    def vector_search(self, index_name: str, query: np.ndarray, k: int = 1) -> Cursor:
        """k-NN over an indexed column; returns the matching rows plus a
        trailing ``__distance`` column, nearest first."""
        return self._models.search(index_name, query, k)

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
        The cache belongs to the version ``name`` resolves to now.
        """
        self._models.enable_cache(name, distance_threshold, index, exact)

    def disable_result_cache(self, name: str) -> None:
        self._models.disable_cache(name)

    def result_cache(self, name: str):
        """The active cache of the version ``name`` resolves to (None if
        caching is disabled for it)."""
        return self._models.caches.get(self.model_info(name).name)

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
        if cluster_workers is None:
            cluster_workers = self._config.cluster_workers
        n_cluster = int(cluster_workers)
        pool = None
        if n_cluster > 0:
            from .cluster import ClusterPool

            pool = ClusterPool(self, workers=n_cluster)
        try:
            if pool is not None:
                pool.wait_ready()
            self._server = ModelServer(
                self, self._models.labels, self._detach_server, cluster=pool, **options
            )
        except BaseException:
            if pool is not None:
                pool.close()
            raise
        return self._server

    def _detach_server(self, server) -> None:
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

        bundle = diagnostics.build_bundle(
            self, self._relations, self._server, CLUSTER_POOLS.get(self),
            self._models.executor, reason=reason, error=error,
        )
        return diagnostics.write_bundle(bundle, path)

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
        cluster = CLUSTER_POOLS.get(self)
        if cluster is not None:
            cluster.close()
        if self._path is not None:
            from .storage import persist

            block_shape = (self._config.tensor_block_rows, self._config.tensor_block_cols)
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
