"""The models of a :class:`~repro.session.Database`: registration, AoT
plans, the one predict path, result caches and vector indexes.  A result
cache belongs to one version record, so a routing change leaves it with
the version that filled it."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SystemConfig
from .core.compiler import AotCompiler, CompiledModel
from .core.ir import InferencePlan, Representation
from .core.optimizer import RuleBasedOptimizer
from .dlruntime.layers import Model
from .dlruntime.memory import MemoryBudget
from .engines.base import EngineResult
from .engines.hybrid import HybridExecutor
from .errors import CatalogError, SqlError
from .lifecycle.routing import routed_predict
from .session_statements import Cursor
from .storage.catalog import VersionRecord, split_version_name


@dataclass
class VectorIndexEntry:
    """Session-side metadata for one ANN index over a table column."""

    table: str
    column: str
    kind: str
    index: object | None = None
    rids: list = field(default_factory=list)


class Models:
    """Registered models and everything that runs them."""

    def __init__(
        self, config, catalog, lifecycle, deployments, telemetry, faults, ledger, rwlock
    ):
        self._catalog = catalog
        self.lifecycle = lifecycle
        self.deployments = deployments
        self._telemetry = telemetry
        self._faults = faults
        self._ledger = ledger
        self._rwlock = rwlock
        counter = telemetry.registry.counter
        self._m_plan_selections = {
            rep: counter(
                "optimizer_plan_selections_total",
                "Plan stages selected at query time, by representation",
                representation=rep.value,
            )
            for rep in Representation
        }
        self._m_index_builds = counter(
            "vector_index_builds_total", "ANN index builds/refreshes"
        )
        self._m_index_searches = counter(
            "vector_index_searches_total", "ANN index searches"
        )
        self.caches: dict[str, object] = {}  # version record name -> result cache
        self.vector_indexes: dict[str, VectorIndexEntry] = {}
        self.rebuild(config)

    def rebuild(self, config: SystemConfig) -> None:
        """Rebuild the planning objects for ``config`` and recompile every
        registered version (the ledger survives on purpose)."""
        self.config = config
        self._plans: dict[Model, CompiledModel] = {}
        self._optimizer = RuleBasedOptimizer(
            config, telemetry=self._telemetry, ledger=self._ledger
        )
        self._compiler = AotCompiler(config, telemetry=self._telemetry, ledger=self._ledger)
        self.executor = self.make_executor()
        for record in self.lifecycle.snapshot().records():
            self.compiled_for(record.model)

    def make_executor(self, dl_budget: MemoryBudget | None = None) -> HybridExecutor:
        return HybridExecutor(
            self._catalog,
            self.config,
            dl_budget=dl_budget,
            telemetry=self._telemetry,
            injector=self._faults,
            ledger=self._ledger,
        )

    def has_model(self, name: str) -> bool:
        return self.lifecycle.snapshot().entry(name.lower()) is not None

    def resolve(self, name: str) -> VersionRecord:
        return self.lifecycle.snapshot().resolve(name)

    def compiled_for(self, model: Model) -> CompiledModel:
        """The model's AoT plans: a cache derived from the model, the
        config (dropped on ``rebuild``) and the ledger generation.

        Runtime rescues advance the ledger's per-model generation; a
        stale compilation re-plans here so the rescued operator is
        lowered up-front instead of failing (and being rescued) again.
        """
        compiled = self._plans.get(model)
        if (
            compiled is None
            or compiled.ledger_generation != self._ledger.generation(model.name)
        ):
            with self._telemetry.tracer.span(f"compile:{model.name}", category="optimizer"):
                compiled = self._plans[model] = self._compiler.compile(model)
        return compiled

    # -- registration -----------------------------------------------------

    def register(self, model: Model, name: str | None) -> str:
        model_name = (name or model.name).lower()
        with self._rwlock.write():
            self.compiled_for(model)
            self.lifecycle.register_base(model_name, model)
        return model_name

    def register_version(self, name, version, model, quantize_bits, prune_sparsity) -> str:
        model_name, version = name.lower(), version.lower()
        self._faults.fire("lifecycle.prepare", model=model_name, version=version)
        if model is None:
            from .dedup.versions import derive_version

            model = derive_version(
                self.resolve(model_name).model,
                quantize_bits=quantize_bits,
                prune_sparsity=prune_sparsity,
            )
        self.compiled_for(model)
        record = self.lifecycle.add_version(model_name, version, model)
        self._telemetry.events.emit(
            "deploy.prepare", model=model_name, version=version, key=record.name
        )
        return record.name

    def restore(self, name: str, model: Model, tables, metadata) -> None:
        """Re-register one persisted model: an ``"m@v"`` entry comes back
        as READY version v of model m (or, with no m, as a model of that
        name); every restored model serves its base version."""
        self.compiled_for(model)
        base, version = split_version_name(name)
        if version and self.lifecycle.snapshot().entry(base):
            record = self.lifecycle.add_version(base, version, model)
        else:
            record = self.lifecycle.register_base(name, model)
        record.block_tables.update(tables)
        record.metadata.update(metadata)

    # -- the predict path -------------------------------------------------

    def plan(self, model: Model, batch_size: int, force) -> InferencePlan:
        if force is not None:
            plan = self._optimizer.plan_model(model, batch_size, force=force)
        else:
            plan = self.compiled_for(model).select(batch_size)
        for stage in plan.stages:
            self._m_plan_selections[stage.representation].inc()
        return plan

    def predict(self, name, features, force, dl_budget) -> EngineResult:
        with self._rwlock.read():
            return self.run(self.resolve(name), features, force, dl_budget)

    def run(self, record, features, force=None, dl_budget=None) -> EngineResult:
        """Execute one version in-process; callers hold the read lock."""
        plan = self.plan(record.model, features.shape[0], force)
        executor = self.executor if dl_budget is None else self.make_executor(dl_budget)
        return executor.execute(plan, features, record)

    def labels(self, name, features, proba_class=None, execute=None) -> tuple:
        """The one predict path: ``(labels, generation served from)``.

        Pins one immutable snapshot for the whole call, so every response
        is attributable to exactly one published generation even while a
        deploy/rollback swaps routing concurrently.  ``execute(record,
        features)`` runs one version; the default runs it in-process, the
        server passes the cluster pool's ``predict`` instead.
        """
        if execute is None:
            def execute(record, feats):
                return self.run_labels(record, feats, proba_class)

        snapshot = self.lifecycle.snapshot()
        entry = snapshot.entry(name.lower())
        if entry is None or proba_class is not None:
            # An explicit "m@v" pins that version; probability outputs
            # are served by the stable version only (no canary slice:
            # scores are not comparable label-wise).
            labels = execute(snapshot.resolve(name), features)
        else:
            labels = routed_predict(self.deployments, entry, features, execute)
        return labels, snapshot.generation

    def run_labels(self, record, features, proba_class) -> np.ndarray:
        with self._rwlock.read():
            if proba_class is not None:
                # Probability outputs bypass the result cache (it stores
                # labels).
                scores = self.run(record, features).outputs
                if not 0 <= proba_class < scores.shape[-1]:
                    raise SqlError(
                        f"PREDICT_PROBA class {proba_class} out of range for "
                        f"model {record.name!r} with {scores.shape[-1]} outputs"
                    )
                return scores[:, proba_class]
            cache = self.caches.get(record.name)
            if cache is not None:
                return cache.serve(features)[0]
            return np.argmax(self.run(record, features).outputs, axis=-1)

    # -- result caching (Sec. 5.1) ----------------------------------------

    def enable_cache(self, name, distance_threshold, index, exact) -> None:
        from .serving.result_cache import ExactResultCache, InferenceResultCache

        with self._rwlock.write():
            record = self.resolve(name)
            wiring = {
                "metrics": self._telemetry.registry,
                "injector": self._faults,
                "recorder": self._telemetry.events,
            }
            if exact:
                self.caches[record.name] = ExactResultCache(record.model, **wiring)
                return
            dim = int(np.prod(record.model.input_shape))
            self.caches[record.name] = InferenceResultCache(
                record.model,
                self.make_index(index, dim, "cache index", m=8, ef_search=16),
                distance_threshold=distance_threshold,
                catalog=self._catalog,
                table_name=f"__cache_{record.model_name}",
                **wiring,
            )

    def disable_cache(self, name: str) -> None:
        with self._rwlock.write():
            self.caches.pop(self.resolve(name).name, None)

    def cache_totals(self) -> tuple[int, int]:
        hits = misses = 0
        for cache in self.caches.values():
            hits += cache.stats.hits
            misses += cache.stats.misses
        return hits, misses

    # -- vector indexes (Sec. 5.1 / the Sec. 6.3 retrieval engine) --------

    def create_index(self, index_name, table, column, kind) -> int:
        with self._rwlock.write():
            key = index_name.lower()
            if key in self.vector_indexes:
                raise CatalogError(f"vector index {index_name!r} already exists")
            info = self._catalog.get_table(table)
            col_idx = info.schema.index_of(column)
            if info.schema[col_idx].ctype.value != "BLOB":
                raise SqlError(f"vector index requires a BLOB column, got {column!r}")
            entry = VectorIndexEntry(table=info.name, column=column, kind=kind)
            count = self._build_index(entry)
            self.vector_indexes[key] = entry
            return count

    def refresh_index(self, index_name: str) -> int:
        with self._rwlock.write():
            return self._build_index(self._index_entry(index_name))

    def search(self, index_name: str, query: np.ndarray, k: int) -> Cursor:
        with self._rwlock.read():
            entry = self._index_entry(index_name)
            if entry.index is None:
                raise CatalogError(f"vector index {index_name!r} was never built")
            self._m_index_searches.inc()
            with self._telemetry.tracer.span(
                f"vector-search:{index_name}", category="index", k=k
            ):
                result = entry.index.search(np.asarray(query, dtype=np.float64), k=k)
            info = self._catalog.get_table(entry.table)
            rows = [
                info.heap.fetch(entry.rids[int(vid)]) + (float(dist),)
                for vid, dist in zip(result.ids, result.distances)
                if vid >= 0
            ]
            return Cursor(tuple(info.schema.names) + ("__distance",), rows)

    def _index_entry(self, index_name: str) -> VectorIndexEntry:
        entry = self.vector_indexes.get(index_name.lower())
        if entry is None:
            raise CatalogError(f"no vector index named {index_name!r}")
        return entry

    def make_index(self, kind: str, dim: int, what: str, **hnsw_options):
        from .indexes import FlatIndex, HnswIndex, IvfIndex, LshIndex

        seed = self.config.seed
        makers = {
            "hnsw": lambda: HnswIndex(dim, seed=seed, **hnsw_options),
            "lsh": lambda: LshIndex(dim, seed=seed),
            "ivf": lambda: IvfIndex(dim, seed=seed),
            "flat": lambda: FlatIndex(dim),
        }
        if kind not in makers:
            raise SqlError(f"unknown {what} {kind!r}; expected one of {sorted(makers)}")
        return makers[kind]()

    def _build_index(self, entry: VectorIndexEntry) -> int:
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
        index = self.make_index(entry.kind, dims.pop(), "vector index kind")
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
