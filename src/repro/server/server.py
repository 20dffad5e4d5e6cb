"""The concurrent serving front-end over one :class:`~repro.session.Database`.

``ModelServer`` turns the single-caller query engine into a request-level
model server: many client threads ``submit`` point requests and get
futures back; per-model :class:`~repro.server.batcher.MicroBatcher`\\ s
coalesce queued requests into batched engine invocations; an
:class:`~repro.server.admission.AdmissionController` bounds the queues
and sheds deadline-infeasible work; a small worker pool drains batches
through the existing hybrid engine under the database's read lock
(concurrent PREDICTs, serialized DDL/DML — see
:class:`~repro.server.locks.ReadWriteLock`).

Resilience: a per-model :class:`~repro.resilience.CircuitBreaker` gates
``submit`` — after repeated terminal failures the breaker opens and
requests fail fast with :class:`~repro.errors.CircuitOpenError` without
touching a queue or a worker, until a half-open probe succeeds and
closes it again.

Observability: ``server_*`` metrics (queue-depth gauges, batch-size
histogram, shed/expired counters, queue-vs-execute latency histograms),
per-batch tracer spans, and the ``SHOW SERVER`` SQL statement.

Cost: a submit pays one future (a pre-acquired lock), one request span,
one ``request.admitted`` event and at most one worker wake-up; a worker
feeds the SLO window and the breaker once per batch, not per request.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ServerClosedError,
    ServerOverloadedError,
)
from ..faults import NULL_INJECTOR, is_transient
from ..resilience import BreakerBoard, CircuitBreaker
from ..serving.policy import ServiceTimeEstimator
from .admission import AdmissionController
from .batcher import Batch, MicroBatcher
from .futures import RequestFuture, RequestState, resolve_all

#: Row-count buckets for the batch-size histogram (1 .. 1024).
BATCH_ROW_BUCKETS: tuple[float, ...] = tuple(float(1 << p) for p in range(0, 11))

#: Request outcomes tracked under ``server_requests_total``.
REQUEST_OUTCOMES: tuple[str, ...] = (
    "submitted",  # accepted into a queue
    "completed",  # future resolved with predictions
    "failed",  # engine raised; error stored on the future
    "rejected",  # queue full: ServerOverloadedError backpressure
    "shed",  # admission predicted the deadline cannot be met
    "expired",  # deadline passed while queued; dropped at batch formation
    "broken",  # circuit breaker open: CircuitOpenError without execution
)


@dataclass
class _ModelState:
    """Everything the server keeps per served model."""

    batcher: MicroBatcher
    estimator: ServiceTimeEstimator
    breaker: CircuitBreaker | None = None  # None with breakers off
    drops_seen: int = 0  # deadline_drops already mirrored into metrics


class ModelServer:
    """A thread-safe, micro-batching request front-end for PREDICT.

    ``workers`` threads drain the queues (default two, or one per cluster
    worker process if that is more, so every process stays busy).  A
    batch holds at most ``max_batch_size`` rows and waits up to
    ``max_queue_delay_ms`` for more requests once one is queued; past
    ``queue_capacity`` queued requests per model, submits raise
    :class:`ServerOverloadedError`.  ``default_deadline_ms`` applies to
    requests without their own deadline (0: none).  A batch that fails
    with a transient fault is re-run up to ``retry_limit`` times, attempt
    k sleeping k * ``retry_backoff_ms``, before it is split into
    per-request executions.
    """

    def __init__(
        self,
        db,
        workers: int | None = None,
        max_batch_size: int = 64,
        max_queue_delay_ms: float = 2.0,
        queue_capacity: int = 256,
        default_deadline_ms: float = 0.0,
        retry_limit: int = 2,
        retry_backoff_ms: float = 1.0,
        cluster=None,
    ):
        config = db.config
        self._db = db
        #: Optional :class:`~repro.cluster.ClusterPool`.  When attached,
        #: batches execute on its worker processes instead of in-process;
        #: everything above the execute call (batching, admission,
        #: breakers, retries, tracing) is identical on both paths.
        self.cluster = cluster
        #: What runs one model version: the pool, or (None) in-process.
        self._execute = cluster.predict if cluster is not None else None
        self._injector = getattr(db, "faults", NULL_INJECTOR)
        self.retry_limit = int(retry_limit)
        self.retry_backoff_s = retry_backoff_ms / 1e3
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_ms must be >= 0")
        if workers is None:
            workers = max(2, cluster.workers if cluster is not None else 0)
        self.workers = int(workers)
        self.max_batch_size = int(max_batch_size)
        self.max_queue_delay_s = max_queue_delay_ms / 1e3
        self.queue_capacity = int(queue_capacity)
        self.default_deadline_ms = default_deadline_ms
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self._admission = AdmissionController(
            self.queue_capacity, self.max_batch_size
        )
        #: Per-model circuit breakers (None when ``breaker_enabled=False``).
        self.breakers = (
            BreakerBoard.from_config(config) if config.breaker_enabled else None
        )
        self._models: dict[str, _ModelState] = {}
        lock = threading.RLock()
        #: Idle workers wait here; drain() waits on ``_idle``, so a
        #: notify() on ``_work`` always wakes a worker.
        self._work = threading.Condition(lock)
        self._idle = threading.Condition(lock)
        self._inflight = 0  # batches taken but not yet resolved
        self._stopping = False  # no new submits
        self._shutdown = False  # workers may exit
        self._next_id = itertools.count(1)
        self._rotation = 0  # round-robin start index for batcher picking
        self._postmortem_dumped = False  # first terminal failure only
        self.abandoned_total = 0  # requests failed by drain deadlines

        registry = db.telemetry.registry
        tracer = db.telemetry.tracer
        self._tracer = tracer
        self._recorder = db.telemetry.events
        self._slo = db.telemetry.slo
        if self.breakers is not None:
            self.breakers.recorder = self._recorder
        self._m_requests = {
            outcome: registry.counter(
                "server_requests_total",
                "Requests through the serving front-end, by outcome",
                outcome=outcome,
            )
            for outcome in REQUEST_OUTCOMES
        }
        self._m_batches = registry.counter(
            "server_batches_total", "Batched engine invocations dispatched"
        )
        self._m_batch_rows = registry.histogram(
            "server_batch_rows",
            "Rows coalesced per batched engine invocation",
            buckets=BATCH_ROW_BUCKETS,
        )
        self._m_queue_seconds = registry.histogram(
            "server_queue_seconds", "Per-request time queued before execution"
        )
        self._m_execute_seconds = registry.histogram(
            "server_execute_seconds", "Per-batch engine execution time"
        )
        self._m_cold_admissions = registry.counter(
            "server_cold_admissions_total",
            "Requests admitted without a feasibility check (estimator cold)",
        )
        self._registry = registry
        self._m_depth: dict[str, object] = {}

        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- client API ------------------------------------------------------

    def submit(
        self,
        model: str,
        features: np.ndarray,
        deadline_ms: float | None = None,
    ) -> RequestFuture:
        """Queue one inference request; returns its future.

        ``features`` is one row ``(d,)`` or a small row batch ``(n, d)``.
        ``deadline_ms`` is relative to now (None uses the server default;
        0 means no deadline).  Raises
        :class:`~repro.errors.ServerOverloadedError` when the model's
        queue is full, :class:`~repro.errors.CircuitOpenError` while the
        model's circuit breaker is open, and
        :class:`~repro.errors.ServerClosedError` after :meth:`close`.  A
        request shed for a provably unmeetable deadline returns normally
        — its future fails with
        :class:`~repro.errors.DeadlineExceededError`.
        """
        if self._stopping:
            raise ServerClosedError("server is closed to new requests")
        name = model.lower()
        state = self._model_state(name)
        breaker = state.breaker
        if breaker is not None:
            allowed, breaker_state = breaker.allow()
            if not allowed:
                # Fail fast without touching the queue or a worker.
                self._m_requests["broken"].inc()
                self._recorder.emit(
                    "request.broken", model=name, breaker_state=breaker_state
                )
                raise CircuitOpenError(
                    name,
                    breaker_state,
                    detail=f"{breaker.rejected_total} requests rejected",
                )
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim == 1:
            feats = feats[np.newaxis, :]
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        now = time.monotonic()
        deadline = now + deadline_ms / 1e3 if deadline_ms else None
        future = RequestFuture(
            next(self._next_id), name, feats, deadline, enqueued_at=now
        )
        # Mint the request's trace root: a detached span closed by the
        # future on resolution (from whichever thread resolves it), plus
        # a TraceContext anchor workers re-enter to parent batch spans.
        span = self._tracer.start_span(
            f"request:{name}",
            category="server",
            model=name,
            request_id=future.request_id,
            rows=future.rows,
            deadline_ms=deadline_ms or 0.0,
        )
        future.span = span
        future.trace = span.context(
            model=name, request_id=future.request_id, deadline_ms=deadline_ms or 0.0
        )
        with self._work:
            if self._stopping:
                raise ServerClosedError("server is closed to new requests")
            batcher = state.batcher
            decision = self._admission.decide(
                state.estimator,
                batcher.queued_requests,
                batcher.queued_rows,
                future.rows,
                deadline,
            )
            if decision.action == "reject":
                self._m_requests["rejected"].inc()
                if breaker is not None:
                    # A half-open probe that never ran must not stay
                    # in flight; let a later arrival probe instead.
                    breaker.abandon_probe()
                self._recorder.emit(
                    "request.rejected",
                    trace_id=future.trace_id,
                    model=name,
                    request_id=future.request_id,
                    queued=batcher.queued_requests,
                    reason=decision.reason,
                )
                span.finish(outcome="rejected")
                raise ServerOverloadedError(
                    name, batcher.queued_requests, self.queue_capacity
                )
            if decision.action == "shed":
                self._m_requests["shed"].inc()
                if breaker is not None:
                    breaker.abandon_probe()
                self._recorder.emit(
                    "request.shed",
                    trace_id=future.trace_id,
                    model=name,
                    request_id=future.request_id,
                    reason=decision.reason,
                )
                future._fail(
                    DeadlineExceededError(
                        f"request shed before queuing: {decision.reason}"
                    ),
                    RequestState.SHED,
                )
                return future
            if decision.cold:
                self._m_cold_admissions.inc()
            queued = batcher.queued_requests
            batcher.put(future, front=decision.action == "fastpath")
            self._m_requests["submitted"].inc()
            self._recorder.emit(
                "request.admitted",
                trace_id=future.trace_id,
                model=name,
                request_id=future.request_id,
                rows=future.rows,
                action=decision.action,
                cold=decision.cold,
                reason=decision.reason,
                queued_requests=queued,
            )
            self._depth_gauge(name).set(batcher.queued_requests)
            if not batcher.leased:
                # A leased batcher's worker sees the request inside its
                # delay window; otherwise one idle worker must pick it up.
                self._work.notify()
        return future

    def predict(
        self,
        model: str,
        features: np.ndarray,
        deadline_ms: float | None = None,
        timeout: float | None = 30.0,
    ) -> np.ndarray:
        """Synchronous convenience: ``submit`` + ``result``."""
        return self.submit(model, features, deadline_ms).result(timeout)

    def drain(self, timeout: float = 30.0) -> bool:
        """Block until every queued request resolved; False on timeout."""
        end = time.monotonic() + timeout
        with self._work:
            while True:
                idle = self._inflight == 0 and all(
                    s.batcher.queued_requests == 0 for s in self._models.values()
                )
                if idle:
                    return True
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(min(remaining, 0.05))

    def close(
        self,
        drain: bool = True,
        timeout: float | None = None,
        drain_timeout_s: float | None = None,
    ) -> int:
        """Stop intake, drain queued work (bounded), join the workers.

        Graceful drain: intake stops first, then in-flight and queued
        requests get up to ``drain_timeout_s`` (aliases ``timeout``;
        default ``config.lifecycle_drain_timeout_s``) to finish.  With
        ``drain=False`` — or for whatever is still queued at the
        deadline — requests fail with
        :class:`~repro.errors.ServerClosedError`.  Returns the number of
        requests abandoned that way (0 on a clean drain); a non-zero
        count is also reported via a ``server.drain_abandoned``
        flight-recorder event.
        """
        if drain_timeout_s is not None:
            timeout = drain_timeout_s
        if timeout is None:
            timeout = self._db.config.lifecycle_drain_timeout_s
        with self._work:
            if self._shutdown:
                return 0
            self._stopping = True
            self._work.notify_all()
        drained = self.drain(timeout) if drain else False
        abandoned = 0
        with self._work:
            self._shutdown = True
            for state in self._models.values():
                leftovers = state.batcher.close()
                for request in leftovers:
                    request._fail(ServerClosedError("server closed"))
                    self._m_requests["failed"].inc()
                    abandoned += 1
            self._work.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
        if abandoned:
            self.abandoned_total += abandoned
            self._recorder.emit(
                "server.drain_abandoned",
                count=abandoned,
                drained=drained,
                timeout_s=timeout,
            )
        if self.cluster is not None:
            self.cluster.close()
        self._db._detach_server(self)
        return abandoned

    @property
    def closed(self) -> bool:
        return self._shutdown

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- stats (SHOW SERVER / SHOW STATS) --------------------------------

    def stats_rows(self) -> list[tuple[str, object]]:
        """(stat, value) rows for ``SHOW SERVER``."""
        with self._work:
            rows: list[tuple[str, object]] = [
                ("server.workers", self.workers),
                ("server.max_batch_size", self.max_batch_size),
                ("server.max_queue_delay_ms", self.max_queue_delay_s * 1e3),
                ("server.queue_capacity", self.queue_capacity),
                ("server.retry_limit", self.retry_limit),
                ("server.retry_backoff_ms", self.retry_backoff_s * 1e3),
                ("server.retries", self._injector.retry_total),
                ("server.closed", self._shutdown),
                ("server.inflight_batches", self._inflight),
            ]
            for outcome in REQUEST_OUTCOMES:
                rows.append(
                    (f"server.requests.{outcome}",
                     int(self._m_requests[outcome].value))
                )
            for name, state in sorted(self._models.items()):
                stats = state.batcher.stats
                rows.extend(
                    [
                        (f"server.model.{name}.queue_depth",
                         state.batcher.queued_requests),
                        (f"server.model.{name}.queued_rows",
                         state.batcher.queued_rows),
                        (f"server.model.{name}.target_batch_size",
                         state.batcher.target_batch_size),
                        (f"server.model.{name}.batches", stats.batches),
                        (f"server.model.{name}.rows_dispatched",
                         stats.rows_dispatched),
                        (f"server.model.{name}.mean_batch_rows",
                         round(stats.mean_batch_rows, 3)),
                        (f"server.model.{name}.largest_batch_rows",
                         stats.largest_batch_rows),
                        (f"server.model.{name}.deadline_drops",
                         stats.deadline_drops),
                        (f"server.model.{name}.estimated_row_seconds",
                         round(state.estimator.estimate_seconds(1), 9)),
                    ]
                )
            rows.append(
                ("server.cold_admissions", int(self._m_cold_admissions.value))
            )
            if self.breakers is not None:
                for breaker in self.breakers:
                    row = breaker.as_row()
                    rows.append((f"server.breaker.{row[0]}.state", row[1]))
                    rows.append(
                        (f"server.breaker.{row[0]}.failure_rate", row[2])
                    )
                    rows.append(
                        (f"server.breaker.{row[0]}.opened_total", row[4])
                    )
            if self.cluster is not None:
                # Worker-process rows appear only in cluster mode; the
                # thread path's output stays byte-for-byte unchanged.
                rows.extend(self.cluster.worker_rows(prefix="server"))
            return rows

    def queue_depths(self) -> dict[str, int]:
        """Queued requests per served model (for the health subsystem)."""
        with self._work:
            return {
                name: state.batcher.queued_requests
                for name, state in self._models.items()
            }

    # -- internals -------------------------------------------------------

    def _record_failure(self, model: str) -> None:
        """Feed one failed request to the model's breaker and SLO window;
        it counts against the error budget however fast it failed."""
        self._slo.observe(model, False, 0.0)
        breaker = self._models[model].breaker
        if breaker is not None:
            breaker.record_failure()

    def _record_successes(self, model: str, latencies_ms: list[float]) -> None:
        """Feed one batch's completed requests (client-visible latency,
        queue + execute) to the SLO window and breaker: one call each."""
        self._slo.observe_many(model, latencies_ms)
        breaker = self._models[model].breaker
        if breaker is not None:
            breaker.record_success(len(latencies_ms))

    def _model_state(self, name: str) -> _ModelState:
        state = self._models.get(name)
        if state is not None:
            return state
        self._db.model_info(name)  # raises CatalogError for unknown models
        with self._work:
            state = self._models.get(name)
            if state is None:
                state = _ModelState(
                    batcher=MicroBatcher(
                        name,
                        self.max_batch_size,
                        self.max_queue_delay_s,
                        recorder=self._recorder,
                    ),
                    estimator=ServiceTimeEstimator(),
                    breaker=(
                        self.breakers.get(f"model:{name}")
                        if self.breakers is not None
                        else None
                    ),
                )
                self._models[name] = state
        return state

    def _depth_gauge(self, name: str):
        gauge = self._m_depth.get(name)
        if gauge is None:
            gauge = self._registry.gauge(
                "server_queue_depth", "Requests queued per model", model=name
            )
            self._m_depth[name] = gauge
        return gauge

    def _pick_locked(self) -> MicroBatcher | None:
        """Round-robin over batchers with queued work (fairness across
        models); callers hold ``self._work``."""
        names = sorted(self._models)
        if not names:
            return None
        n = len(names)
        for i in range(n):
            state = self._models[names[(self._rotation + i) % n]]
            batcher = state.batcher
            if not batcher.leased and batcher.queued_requests:
                self._rotation = (self._rotation + i + 1) % n
                return batcher
        return None

    def _worker_loop(self) -> None:
        while True:
            batcher = None
            with self._work:
                while batcher is None:
                    if self._shutdown:
                        return
                    batcher = self._pick_locked()
                    if batcher is None:
                        self._work.wait(0.05)
                batcher.leased = True
                self._inflight += 1
            try:
                batch = batcher.collect(block=False)
            finally:
                with self._work:
                    batcher.leased = False
                    if batcher.queued_requests:
                        # Arrivals during the lease woke no worker: hand
                        # them to an idle one while this one executes.
                        self._work.notify()
            if batch is None or not batch.requests:
                with self._work:
                    self._inflight -= 1
                    self._sync_drops_locked(batcher)
                    self._idle.notify_all()
                continue
            try:
                self._execute_batch(batch)
            except BaseException as exc:  # unhandled: the postmortem path
                self._handle_worker_error(batch, exc)
            finally:
                with self._work:
                    self._inflight -= 1
                    self._sync_drops_locked(batcher)
                    self._depth_gauge(batch.model).set(batcher.queued_requests)
                    self._idle.notify_all()

    def _handle_worker_error(self, batch: Batch, exc: BaseException) -> None:
        """Unhandled worker failure: fail the batch, record the postmortem.

        ``_serve`` resolves expected engine errors onto futures;
        anything that escapes it is a server bug or an unmodeled fault,
        so the flight recorder logs it and — when ``diagnostics_dir`` is
        configured — a diagnostics bundle is written automatically.
        """
        self._recorder.emit(
            "server.worker_error",
            trace_id=batch.requests[0].trace_id if batch.requests else None,
            model=batch.model,
            error=type(exc).__name__,
            detail=str(exc)[:200],
        )
        unresolved = sum(1 for r in batch.requests if not r.done())
        resolve_all(batch.requests, exc)
        if unresolved:
            self._m_requests["failed"].inc(unresolved)
        self._record_failure(batch.model)
        self._db._maybe_dump_diagnostics("server.worker_error", error=exc)

    def _postmortem(self, exc: BaseException) -> None:
        """Auto-dump one bundle on the FIRST terminal request failure.

        A client-visible failure (retries and isolation exhausted) is the
        postmortem moment; later failures are already captured by the
        flight recorder inside that first bundle, so dumping once per
        server lifetime keeps failure storms from flooding
        ``diagnostics_dir``.
        """
        if self._postmortem_dumped:
            return
        self._postmortem_dumped = True
        self._db._maybe_dump_diagnostics("server.request_failed", error=exc)

    def _sync_drops_locked(self, batcher: MicroBatcher) -> None:
        """Mirror the batcher's deadline drops into the outcome counter."""
        state = self._models.get(batcher.model)
        if state is None:
            return
        drops = batcher.stats.deadline_drops
        if drops > state.drops_seen:
            new_drops = drops - state.drops_seen
            self._m_requests["expired"].inc(new_drops)
            state.drops_seen = drops
            # An expired request never completed: each one burns budget.
            self._slo.observe_many(batcher.model, [0.0] * new_drops, ok=False)

    def _execute_batch(self, batch: Batch) -> None:
        started = time.monotonic()
        requests = batch.requests
        if self._serve(batch.model, requests, started) or len(requests) == 1:
            return
        # The batch is poisoned past its retry budget: isolate, so each
        # request gets its own engine invocation and only the poisoned
        # request(s) fail, not all riders.
        salvaged = [
            self._serve(batch.model, [request], started, isolated=True)
            for request in requests
        ]
        if any(salvaged):
            self._injector.record_recovery("server.batch")

    def _serve(
        self,
        model: str,
        requests: list[RequestFuture],
        started: float,
        isolated: bool = False,
    ) -> bool:
        """Run ``requests`` as one engine invocation and settle them.

        The whole per-invocation sequence: run (retrying transient faults)
        → time → resolve futures → emit events → feed breaker/SLO.  Returns
        False on a terminal failure; a lone request is failed here, a
        coalesced batch is left unresolved for the caller to isolate.
        ``isolated`` marks those one-request re-runs: no retries, no
        batch-level metrics.
        """
        state = self._models[model]
        # The worker executes under the FIRST member's trace context: the
        # batch span (and every engine span under it) inherits that
        # request's trace id and parents to its root span; the other
        # members are attached via flow-event links.
        first = requests[0]
        features = (
            first.features
            if len(requests) == 1
            else np.vstack([r.features for r in requests])
        )
        rows = int(features.shape[0])
        member_traces = tuple(
            r.trace_id for r in requests if r.trace_id is not None
        )
        tag = {"isolated": True} if isolated else {}
        attempts = 0
        while True:
            try:
                with self._tracer.context(first.trace):
                    with self._tracer.span(
                        f"serve-{'isolated' if isolated else 'batch'}:{model}",
                        category="server",
                        rows=rows,
                        requests=len(requests),
                    ) as batch_span:
                        batch_span.link(
                            *(t for t in member_traces if t != first.trace_id)
                        )
                        start = time.perf_counter()
                        self._injector.fire(
                            "server.batch",
                            model=model,
                            rows=rows,
                            attempt=attempts,
                            **tag,
                        )
                        # Thread and cluster mode share the database's one
                        # predict path, so canary/shadow deployments apply
                        # identically; only the version executor differs.
                        predictions, __ = self._db._predict(
                            model, features, execute=self._execute
                        )
                        execute_seconds = time.perf_counter() - start
                break
            except BaseException as exc:
                if (
                    not isolated
                    and is_transient(exc)
                    and attempts < self.retry_limit
                ):
                    attempts += 1
                    self._injector.record_retry("server.batch")
                    self._recorder.emit(
                        "request.retried",
                        trace_id=first.trace_id,
                        model=model,
                        attempt=attempts,
                        error=type(exc).__name__,
                        traces=member_traces,
                    )
                    if self.retry_backoff_s:
                        time.sleep(self.retry_backoff_s * attempts)
                    continue
                if len(requests) > 1:
                    self._recorder.emit(
                        "batch.isolated",
                        trace_id=first.trace_id,
                        model=model,
                        requests=len(requests),
                        error=type(exc).__name__,
                        traces=member_traces,
                    )
                    return False
                self._recorder.emit(
                    "request.failed",
                    trace_id=first.trace_id,
                    model=model,
                    request_id=first.request_id,
                    error=type(exc).__name__,
                    **tag,
                )
                first._fail(exc)
                self._m_requests["failed"].inc()
                self._record_failure(model)
                self._postmortem(exc)
                return False
        if attempts:
            # Succeeded only because we retried past a transient fault.
            self._injector.record_recovery("server.batch")
        state.estimator.observe(rows, execute_seconds)
        if not isolated:
            self._m_batches.inc()
            self._m_batch_rows.observe(float(rows))
            self._m_execute_seconds.observe(execute_seconds)
            self._recorder.emit(
                "batch.executed",
                trace_id=first.trace_id,
                model=model,
                rows=rows,
                requests=len(requests),
                attempts=attempts,
                execute_ms=round(execute_seconds * 1e3, 3),
                traces=member_traces,
            )
        offset = 0
        latencies_ms = []
        for request in requests:
            queue_seconds = max(0.0, started - request.enqueued_at)
            self._m_queue_seconds.observe(queue_seconds)
            request._resolve(
                predictions[offset : offset + request.rows],
                queue_seconds,
                execute_seconds,
            )
            offset += request.rows
            self._recorder.emit(
                "request.completed",
                trace_id=request.trace_id,
                model=model,
                request_id=request.request_id,
                queue_ms=round(queue_seconds * 1e3, 3),
                execute_ms=round(execute_seconds * 1e3, 3),
                **tag,
            )
            latencies_ms.append((queue_seconds + execute_seconds) * 1e3)
        self._record_successes(model, latencies_ms)
        self._m_requests["completed"].inc(len(requests))
        return True
