"""The multi-process worker pool behind the serving front-end.

``ClusterPool`` owns N child processes (:mod:`repro.cluster.worker`),
the consistent-hash :class:`~repro.cluster.placement.Placement` that
shards models onto them, and the health-aware
:class:`~repro.cluster.router.ClusterRouter` that picks a replica per
request.  The serving front-end passes :meth:`predict` to the database's
predict path as the version executor, where the thread path runs the
version in-process — everything above (lifecycle routing, the
micro-batcher, admission control, per-model breakers, SLO tracking)
stays unchanged.

Failure semantics:

* a worker that exits (or is SIGKILLed) is detected via its process
  sentinel or heartbeat timeout; its in-flight requests are marked
  crashed, and each blocked caller *reroutes* to another live replica
  (``cluster.reroute``), failing with
  :class:`~repro.errors.WorkerCrashedError` only when no replica can
  take the request before the cluster request timeout;
* the dead slot is respawned with the same worker id, and every model
  the placement layer had assigned to it is re-loaded
  (``cluster.respawn`` — placement is restored, not recomputed);
* a worker that is alive but silent past the heartbeat timeout is
  treated as wedged: killed, then respawned through the same path.

All tensor payloads cross via :mod:`repro.cluster.shm`.  Transport state
lives as long as the worker, not the request: each worker handle keeps a
free list of :class:`~repro.cluster.shm.Slot`\\ s for its current
generation.  A request takes a free slot (creating one only when every
slot is busy, so the count equals the worker's peak in-flight requests),
writes its features, and hands the slot back when it is retired.  The
parent owns every slot and is the only unlinker:

* an abandoned (timed-out) request keeps its slot until the worker's
  late answer or death retires it, so a late write can never land in
  another request's labels;
* when a generation is declared dead (crash, wedge, rolling restart)
  its idle slots are unlinked, and a slot handed back to a dead
  generation is unlinked rather than reused;
* ``close()`` unlinks every slot, so no ``/dev/shm`` entry outlives the
  pool.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import sys
import threading
import time
from dataclasses import replace
from multiprocessing.connection import wait as conn_wait

import numpy as np

from ..errors import (
    ClusterError,
    ClusterUnavailableError,
    WorkerCrashedError,
    WorkerExecutionError,
    WorkerLoadError,
)
from ..session_relations import CLUSTER_POOLS
from . import shm as shm_transport
from .placement import Placement
from .router import ClusterRouter
from .worker import (
    DEAD,
    MSG_ERR,
    MSG_HEARTBEAT,
    MSG_LOAD,
    MSG_LOAD_ERR,
    MSG_LOADED,
    MSG_OK,
    MSG_PREDICT,
    MSG_READY,
    MSG_STOP,
    READY,
    STARTING,
    STOPPED,
    WorkerHandle,
    _worker_main,
)

#: Request outcomes tracked under ``cluster_requests_total``.
CLUSTER_OUTCOMES: tuple[str, ...] = ("completed", "failed", "rerouted")

class _Pending:
    """One in-flight request awaiting its worker's response.

    ``abandoned`` marks a request whose caller gave up (request
    timeout) while the worker is still chewing on it: the request stays
    in the pending map — counted against the worker's ``inflight`` and
    holding its transport ``slot`` — until the worker's late response
    (or death) retires it, so routing and SHOW CLUSTER never
    under-report queued work on a slow worker, and the worker's late
    write never lands in a slot another request has taken.
    """

    __slots__ = (
        "event",
        "worker_id",
        "generation",
        "ref",
        "error",
        "crashed",
        "abandoned",
        "slot",
    )

    def __init__(self, worker_id: int, generation: int):
        self.event = threading.Event()
        self.worker_id = worker_id
        self.generation = generation
        self.ref = None
        self.error: BaseException | None = None
        self.crashed = False
        self.abandoned = False
        self.slot: shm_transport.Slot | None = None


class ClusterPool:
    """Process-parallel model serving with shared-memory transport."""

    #: Distinguishes pools within one parent process: segment names must
    #: be unique across *every* live pool (two Databases each serving
    #: with a cluster would otherwise mint colliding ``rc<pid>-<req>``
    #: names and fail with FileExistsError).
    _pool_seq = itertools.count()

    def __init__(self, db, workers: int | None = None, replication: int = 2):
        config = db.config
        self.workers = int(
            workers if workers is not None else config.cluster_workers
        )
        if self.workers < 1:
            raise ClusterError("a cluster pool needs at least one worker")
        self._db = db
        self._config = config
        self.shm_max_bytes = int(config.cluster_shm_max_bytes)
        self._hb_interval_s = config.cluster_heartbeat_interval_ms / 1e3
        self._hb_timeout_s = config.cluster_heartbeat_timeout_ms / 1e3
        self._request_timeout_s = config.cluster_request_timeout_ms / 1e3
        self.start_method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._ctx = multiprocessing.get_context(self.start_method)
        # Workers run with telemetry off: the parent owns observability.
        self._worker_config = replace(
            config,
            telemetry_enabled=False,
            profiler_enabled=False,
            diagnostics_dir="",
            cluster_workers=0,
        )
        self._recorder = db.telemetry.events
        registry = db.telemetry.registry
        self._m_requests = {
            outcome: registry.counter(
                "cluster_requests_total",
                "Requests through the process pool, by outcome",
                outcome=outcome,
            )
            for outcome in CLUSTER_OUTCOMES
        }
        self._m_shm_fallback = registry.counter(
            "cluster_shm_fallback_total",
            "Tensor payloads that fell back to pickling (oversized batch "
            "or mismatched response slot)",
        )
        self._m_reroutes = registry.counter(
            "cluster_reroutes_total",
            "In-flight requests moved to a replica after a worker crash",
        )
        self._m_spawns = registry.counter(
            "cluster_spawns_total", "Worker processes started (incl. respawns)"
        )
        self._m_crashes = registry.counter(
            "cluster_crashes_total", "Workers declared dead (exit or wedge)"
        )
        self._m_respawns = registry.counter(
            "cluster_respawns_total", "Dead workers restarted with placement restored"
        )
        self._m_alive = registry.gauge(
            "cluster_workers_alive", "Worker processes currently serving"
        )

        self._lock = threading.RLock()
        self._loaded_cond = threading.Condition(self._lock)
        self._handles: dict[int, WorkerHandle] = {
            wid: WorkerHandle(worker_id=wid) for wid in range(self.workers)
        }
        self._placement = Placement(
            list(self._handles),
            replication=replication,
            block_rows=config.tensor_block_rows,
        )
        #: Replicas per model: ``replication`` clamped to the worker count.
        self.replication = self._placement.replication
        self.router = ClusterRouter(self._handles, config, slo=db.telemetry.slo)
        self._placed: dict[str, tuple[int, ...]] = {}
        self._model_bytes: dict[str, bytes] = {}
        self._load_failures: dict[str, WorkerLoadError] = {}
        self._pending: dict[int, _Pending] = {}
        #: Every slot not yet unlinked, in use or idle (``close()`` unlinks them).
        self._slots: set[shm_transport.Slot] = set()
        self._ids = itertools.count(1)
        self._seg_prefix = f"rc{os.getpid()}p{next(ClusterPool._pool_seq)}"
        self._closing = False
        self.closed = False

        for wid in self._handles:
            self._spawn_locked(self._handles[wid], initial=True)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()
        CLUSTER_POOLS[db] = self

    # -- client API ------------------------------------------------------

    def predict(self, model, features: np.ndarray) -> np.ndarray:
        """Run one batched inference on a placed replica.

        ``model`` is a name (resolved like ``Database.model_info``: the
        serving version of ``"m"``, or an explicit ``"m@v"``) or an
        already-resolved version record, which is what the server's
        routed predict path hands over.  Blocks the calling (server
        worker) thread, never the client.
        Reroutes transparently on worker crashes; raises
        :class:`WorkerCrashedError` / :class:`ClusterUnavailableError`
        when the placement cannot serve within the request timeout.
        """
        if self._closing:
            raise ClusterError("cluster pool is closed")
        info = self._db.model_info(model) if isinstance(model, str) else model
        name = info.name
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[np.newaxis, :]
        deadline = time.monotonic() + self._request_timeout_s
        replicas = self._ensure_placed(info)
        tried: set[int] = set()
        last_crash: WorkerCrashedError | None = None
        while True:
            load_error = self._load_failures.get(name)
            if load_error is not None:
                # Deterministic: the same bytes would fail everywhere.
                # Fail fast with the real worker-side error instead of
                # burning the request timeout on doomed replicas.
                self._m_requests["failed"].inc()
                raise load_error
            wid = self.router.choose(name, replicas, exclude=tried)
            if wid is None:
                if time.monotonic() >= deadline or self._closing:
                    if last_crash is not None:
                        raise last_crash
                    raise ClusterUnavailableError(
                        f"no live replica for model {name!r} "
                        f"(placement {list(replicas)})"
                    )
                # Every replica is down; wait out the respawn and retry
                # the full placement.
                time.sleep(self._hb_interval_s)
                tried.clear()
                continue
            handle = self._handles[wid]
            if not self._await_loaded(handle, name, deadline):
                tried.add(wid)
                continue
            outcome = self._predict_on(handle, name, features, deadline)
            if isinstance(outcome, WorkerCrashedError):
                last_crash = outcome
                tried.add(wid)
                self._m_requests["rerouted"].inc()
                self._m_reroutes.inc()
                self._recorder.emit(
                    "cluster.reroute",
                    model=name,
                    from_worker=wid,
                    rows=int(features.shape[0]),
                )
                continue
            if isinstance(outcome, BaseException):
                self._m_requests["failed"].inc()
                raise outcome
            self._m_requests["completed"].inc()
            return outcome

    def _predict_on(
        self, handle: WorkerHandle, model: str, features: np.ndarray, deadline: float
    ):
        """One attempt on one worker: returns labels, or an exception
        value (``WorkerCrashedError`` means the caller should reroute)."""
        req_id = next(self._ids)
        in_ref = shm_transport.unshared_ref(features, self.shm_max_bytes)
        with self._lock:
            pending = _Pending(handle.worker_id, handle.generation)
            self._pending[req_id] = pending
            handle.inflight += 1
            if in_ref is None and handle.free_slots:
                pending.slot = handle.free_slots.pop()
        try:
            if in_ref is None:
                if pending.slot is None:
                    try:
                        pending.slot = self._new_slot(pending.generation)
                    except ClusterError as exc:
                        return exc
                in_ref = pending.slot.write_input(features)
            elif in_ref.kind == shm_transport.INLINE:
                self._m_shm_fallback.inc()
                self._recorder.emit(
                    "cluster.shm_fallback",
                    model=model,
                    rows=int(features.shape[0]),
                    nbytes=int(features.nbytes),
                )
            slot = pending.slot
            if slot is None:
                out = (None, 0, 0)
            else:  # labels go into the region after the features
                out = (slot.name, slot.capacity, slot.capacity)
            sent = handle.alive and handle.send(
                (MSG_PREDICT, req_id, model, in_ref, *out)
            )
            if not sent:
                return WorkerCrashedError(
                    handle.worker_id, model, detail="send failed"
                )
            answered = pending.event.wait(max(0.0, deadline - time.monotonic()))
            if not answered:
                with self._lock:
                    # Re-check under the lock: the response may have
                    # landed between the wait timing out and here.
                    if pending.event.is_set():
                        answered = True
                    else:
                        # The worker is still busy with this request.
                        # Leave it pending (counted in ``inflight``, its
                        # slot held) until the late response or the
                        # worker's death retires it — see _retire_locked.
                        pending.abandoned = True
            if not answered:
                return ClusterUnavailableError(
                    f"worker {handle.worker_id} did not answer for model "
                    f"{model!r} within the cluster request timeout"
                )
            if pending.crashed:
                self.router.record_outcome(handle.worker_id, ok=False)
                return WorkerCrashedError(handle.worker_id, model)
            if pending.error is not None:
                # The worker is healthy — it executed and reported an
                # engine-level failure.  Health-wise that is a success.
                self.router.record_outcome(handle.worker_id, ok=True)
                return pending.error
            self.router.record_outcome(handle.worker_id, ok=True)
            ref = pending.ref
            if slot is None:
                return shm_transport.read_array(ref)
            if ref.kind == shm_transport.INLINE and ref.nbytes > 0:
                # The response did not fit the slot's label region.
                self._m_shm_fallback.inc()
            return slot.read(ref)
        finally:
            with self._lock:
                if not pending.abandoned:
                    self._retire_locked(handle, req_id, pending)

    def _new_slot(self, generation: int) -> shm_transport.Slot:
        """Create a slot for one worker generation (outside the pool lock:
        the first segment a process creates also starts its resource
        tracker).  Raises :class:`ClusterError` when the segment cannot
        be created or the pool is closing."""
        name = f"{self._seg_prefix}-{next(self._ids)}s"
        try:
            slot = shm_transport.Slot(name, self.shm_max_bytes, generation)
        except OSError as exc:  # ENOSPC, EEXIST, ...
            raise ClusterError(f"cannot create shared-memory slot: {exc}") from exc
        with self._lock:
            if not self._closing:
                self._slots.add(slot)
                return slot
        slot.release()
        raise ClusterError("cluster pool is closed")

    def _retire_locked(
        self, handle: WorkerHandle, req_id: int, pending: _Pending
    ) -> None:
        """Forget one finished request and hand its slot back.

        The slot returns to the worker's free list only while the
        generation it was made for is alive; otherwise it is unlinked,
        since a dead (or killed, still-exiting) process may yet write
        into it.
        """
        self._pending.pop(req_id, None)
        handle.inflight = max(0, handle.inflight - 1)
        slot = pending.slot
        if slot is None:
            return
        if (
            slot.generation == handle.generation
            and handle.state != DEAD
            and not self._closing
        ):
            handle.free_slots.append(slot)
        else:
            self._slots.discard(slot)
            slot.release()

    # -- placement -------------------------------------------------------

    def ensure_model(self, model: str) -> tuple[int, ...]:
        """Place (and start loading) a model; returns its replica ids."""
        return self._ensure_placed(self._db.model_info(model))

    def _ensure_placed(self, info) -> tuple[int, ...]:
        """Place one version record under its wire id (``info.name``)."""
        name = info.name
        with self._lock:
            placed = self._placed.get(name)
            if placed is not None:
                return placed
            in_features = int(np.prod(info.model.input_shape))
            replicas = self._placement.replicas(name, in_features)
            self._model_bytes[name] = pickle.dumps(info.model)
            self._placed[name] = replicas
            for wid in replicas:
                self._send_load_locked(self._handles[wid], name)
            return replicas

    def _send_load_locked(self, handle: WorkerHandle, name: str) -> None:
        if name in handle.loaded or name in self._load_failures:
            return
        handle.send((MSG_LOAD, name, self._model_bytes[name]))

    def _await_loaded(
        self, handle: WorkerHandle, name: str, deadline: float
    ) -> bool:
        """Wait until the worker acks the model (False: gave up/crashed)."""
        with self._loaded_cond:
            while name not in handle.loaded:
                if name in self._load_failures:
                    return False  # the caller raises the recorded error
                if handle.state in (DEAD, STOPPED) or self._closing:
                    return False
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._loaded_cond.wait(min(remaining, 0.05))
            return True

    def wait_ready(self, timeout: float | None = None) -> None:
        """Block until every worker has finished its start-up handshake.

        ``__enter__`` and ``Database.serve`` call this, so a pool they
        return serves on every worker from its first request.  Raises
        :class:`ClusterUnavailableError` when ``timeout`` (default: the
        cluster request timeout) passes first or the pool closes.
        """
        limit = self._request_timeout_s if timeout is None else timeout
        deadline = time.monotonic() + limit
        with self._loaded_cond:
            while any(h.state != READY for h in self._handles.values()):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closing:
                    states = {w: h.state for w, h in self._handles.items()}
                    raise ClusterUnavailableError(
                        f"cluster workers not ready within {limit:g}s: {states}"
                    )
                self._loaded_cond.wait(remaining)

    def placement_map(self) -> dict[str, list[int]]:
        with self._lock:
            return {name: list(wids) for name, wids in sorted(self._placed.items())}

    def worker_pids(self) -> dict[int, int | None]:
        with self._lock:
            # Before the READY handshake lands, the OS-level pid is
            # already known from the spawned process object.
            return {
                wid: (
                    h.pid
                    if h.pid is not None
                    else getattr(h.process, "pid", None)
                )
                for wid, h in sorted(self._handles.items())
            }

    # -- lifecycle -------------------------------------------------------

    def _spawn_locked(self, handle: WorkerHandle, initial: bool) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        handle.generation += 1
        handle.conn = parent_conn
        handle.state = STARTING
        handle.pid = None
        handle.loaded = set()
        handle.last_heartbeat = time.monotonic()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, handle.worker_id, self._worker_config),
            name=f"repro-cluster-w{handle.worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        self._m_spawns.inc()
        self._recorder.emit(
            "cluster.spawn",
            worker=handle.worker_id,
            pid=process.pid,
            generation=handle.generation,
            initial=initial,
        )
        reader = threading.Thread(
            target=self._reader_loop,
            args=(handle, handle.generation),
            name=f"repro-cluster-r{handle.worker_id}",
            daemon=True,
        )
        reader.start()

    def _reader_loop(self, handle: WorkerHandle, generation: int) -> None:
        conn = handle.conn
        process = handle.process
        while not self._closing and handle.generation == generation:
            try:
                ready = conn_wait([conn, process.sentinel], timeout=0.2)
            except OSError:
                break
            if self._closing or handle.generation != generation:
                return
            if conn in ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    break
                self._dispatch(handle, generation, msg)
                continue
            if process.sentinel in ready:
                break
        if not self._closing and handle.generation == generation:
            self._declare_dead(handle, generation, reason="exit")

    def _dispatch(self, handle: WorkerHandle, generation: int, msg: tuple) -> None:
        handle.last_heartbeat = time.monotonic()
        tag = msg[0]
        if tag == MSG_READY:
            with self._loaded_cond:
                handle.pid = msg[1]
                handle.state = READY
                self._loaded_cond.notify_all()
            self._refresh_alive_gauge()
        elif tag == MSG_LOADED:
            with self._loaded_cond:
                handle.loaded.add(msg[1])
                self._loaded_cond.notify_all()
        elif tag == MSG_HEARTBEAT:
            pass  # the timestamp update above is the whole point
        elif tag == MSG_LOAD_ERR:
            __, name, payload = msg
            error = WorkerLoadError(
                handle.worker_id, name, self._unpickle_error(payload)
            )
            with self._loaded_cond:
                # First failure wins; every replica would fail the same
                # way, so one record retires the model pool-wide.
                self._load_failures.setdefault(name, error)
                self._loaded_cond.notify_all()
            self._recorder.emit(
                "cluster.load_error",
                worker=handle.worker_id,
                model=name,
                error=type(error.__cause__).__name__,
            )
        elif tag in (MSG_OK, MSG_ERR):
            __, req_id, payload = msg
            with self._lock:
                pending = self._pending.get(req_id)
                if pending is not None and pending.abandoned:
                    # The caller timed out and moved on; the worker has
                    # now finished, so retire the request it was holding.
                    self._retire_locked(handle, req_id, pending)
            if pending is None or pending.generation != generation:
                return  # raced with a reroute; the caller moved on
            if tag == MSG_OK:
                pending.ref = payload
            else:
                pending.error = self._unpickle_error(payload)
            pending.event.set()

    @staticmethod
    def _unpickle_error(payload) -> BaseException:
        if isinstance(payload, tuple):
            return WorkerExecutionError(payload[0], payload[1])
        try:
            error = pickle.loads(payload)
            if isinstance(error, BaseException):
                return error
        except Exception:
            pass
        return WorkerExecutionError("UnknownError", repr(payload))

    def _declare_dead(
        self, handle: WorkerHandle, generation: int, reason: str
    ) -> None:
        """Mark one incarnation dead and fail its in-flight requests."""
        with self._lock:
            if handle.generation != generation or handle.state in (DEAD, STOPPED):
                return
            handle.state = DEAD
            # Idle slots go now; busy ones when their request is retired.
            for slot in handle.free_slots:
                self._slots.discard(slot)
                slot.release()
            handle.free_slots.clear()
            victims = []
            for req_id, p in list(self._pending.items()):
                if p.worker_id != handle.worker_id or p.generation != generation:
                    continue
                victims.append(p)
                if p.abandoned:
                    # The caller already gave up; nobody else will retire
                    # this request now that the worker died holding it.
                    self._retire_locked(handle, req_id, p)
        self._m_crashes.inc()
        self._refresh_alive_gauge()
        self.router.record_outcome(handle.worker_id, ok=False)
        self._recorder.emit(
            "cluster.crash",
            worker=handle.worker_id,
            pid=handle.pid,
            reason=reason,
            inflight=len(victims),
        )
        for pending in victims:
            pending.crashed = True
            pending.event.set()
        with self._loaded_cond:
            self._loaded_cond.notify_all()

    def _monitor_loop(self) -> None:
        while not self._closing:
            time.sleep(self._hb_interval_s)
            if self._closing:
                return
            now = time.monotonic()
            for handle in self._handles.values():
                if self._closing:
                    return
                if handle.state == DEAD:
                    self._respawn(handle)
                    continue
                if handle.state not in (READY, STARTING):
                    continue
                process = handle.process
                if process is not None and not process.is_alive():
                    self._declare_dead(handle, handle.generation, reason="exit")
                    self._respawn(handle)
                elif handle.heartbeat_age_s(now) > self._hb_timeout_s:
                    # Alive but silent: wedged.  Kill, then respawn.
                    try:
                        process.kill()
                    except Exception:  # pragma: no cover - already gone
                        pass
                    self._declare_dead(handle, handle.generation, reason="wedged")
                    self._respawn(handle)

    def _respawn(self, handle: WorkerHandle) -> None:
        with self._lock:
            if self._closing or handle.state != DEAD:
                return
            old_generation = handle.generation
            try:
                handle.conn.close()
            except Exception:  # pragma: no cover
                pass
            self._spawn_locked(handle, initial=False)
            handle.restarts += 1
            # Placement restored, not recomputed: every model this slot
            # hosted is re-loaded into the fresh process.  Models whose
            # load already failed are left retired — replaying the same
            # bytes would fail identically.
            restored = [
                name
                for name, wids in self._placed.items()
                if handle.worker_id in wids and name not in self._load_failures
            ]
            for name in restored:
                self._send_load_locked(handle, name)
        self._m_respawns.inc()
        self._recorder.emit(
            "cluster.respawn",
            worker=handle.worker_id,
            pid=handle.process.pid,
            generation=handle.generation,
            replaced_generation=old_generation,
            models=len(restored),
        )

    def _refresh_alive_gauge(self) -> None:
        self._m_alive.set(
            sum(1 for h in self._handles.values() if h.alive)
        )

    def rolling_restart(self, drain_timeout_s: float | None = None) -> int:
        """Restart every worker one at a time, draining each first.

        Per worker: mark the slot draining (the router stops picking it),
        wait — bounded by ``drain_timeout_s``, default
        ``config.lifecycle_drain_timeout_s`` — for its in-flight requests
        to finish, then stop the process and let the existing
        crash-detection path respawn the slot with its placement
        restored.  Traffic keeps flowing through the other replicas the
        whole time, which is what makes deploys on the cluster
        zero-client-visible-error.  Returns the number of workers
        restarted.
        """
        timeout = (
            drain_timeout_s
            if drain_timeout_s is not None
            else self._db.config.lifecycle_drain_timeout_s
        )
        restarted = 0
        for wid in sorted(self._handles):
            handle = self._handles[wid]
            with self._lock:
                if self._closing or handle.state != READY:
                    continue
                handle.draining = True
                generation = handle.generation
            try:
                deadline = time.monotonic() + timeout
                while handle.inflight > 0 and time.monotonic() < deadline:
                    time.sleep(0.005)
                self._recorder.emit(
                    "cluster.rolling_restart",
                    worker=wid,
                    generation=generation,
                    abandoned_inflight=handle.inflight,
                )
                process = handle.process
                handle.send((MSG_STOP,))
                if process is not None:
                    process.join(timeout=5.0)
                # The reader/monitor declare the exit and respawn the slot
                # with placement restored; wait for it to come back.
                deadline = time.monotonic() + max(timeout, 10.0)
                while time.monotonic() < deadline:
                    if handle.state == READY and handle.generation > generation:
                        break
                    if self._closing:
                        break
                    time.sleep(0.01)
            finally:
                handle.draining = False
            restarted += 1
        return restarted

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker and fail whatever is still in flight."""
        with self._lock:
            if self.closed:
                return
            self._closing = True
            pendings = list(self._pending.values())
        for pending in pendings:
            pending.crashed = True
            pending.event.set()
        with self._loaded_cond:
            self._loaded_cond.notify_all()
        for handle in self._handles.values():
            handle.send((MSG_STOP,))
        end = time.monotonic() + timeout
        for handle in self._handles.values():
            process = handle.process
            if process is None:
                continue
            process.join(max(0.1, end - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(1.0)
            handle.state = STOPPED
            try:
                handle.conn.close()
            except Exception:  # pragma: no cover
                pass
        with self._lock:
            live, self._slots = self._slots, set()
            idle = [s for h in self._handles.values() for s in h.free_slots]
            for handle in self._handles.values():
                handle.free_slots.clear()
        # A slot a caller still holds only loses its name here: the
        # caller may be copying labels out of it, and unmaps it when it
        # retires the request.
        for slot in idle:
            slot.release()
        for slot in live.difference(idle):
            shm_transport.unlink(slot.segment)
        if self._monitor.is_alive():
            self._monitor.join(timeout=2.0)
        self._refresh_alive_gauge()
        self.closed = True
        if CLUSTER_POOLS.get(self._db) is self:
            del CLUSTER_POOLS[self._db]

    def __enter__(self) -> "ClusterPool":
        try:
            self.wait_ready()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- observability ---------------------------------------------------

    def stats_rows(self) -> list[tuple[str, object]]:
        """(stat, value) rows for ``SHOW CLUSTER``, rendered from
        :meth:`snapshot`."""
        snapshot = self.snapshot()
        rows: list[tuple[str, object]] = [
            ("cluster.workers", self.workers),
            ("cluster.replication", self.replication),
            ("cluster.start_method", self.start_method),
            ("cluster.shm_max_bytes", self.shm_max_bytes),
            ("cluster.closed", self.closed),
        ]
        for key, value in snapshot["counters"].items():
            group = "requests." if key in CLUSTER_OUTCOMES else ""
            rows.append((f"cluster.{group}{key}", value))
        rows.extend(self.worker_rows(prefix="cluster"))
        for name, wids in snapshot["placement"].items():
            rows.append((f"cluster.placement.{name}", ",".join(map(str, wids))))
        for name, error in snapshot["load_failures"].items():
            rows.append((f"cluster.load_failure.{name}", error))
        for row in self.router.rows():
            rows.append((f"cluster.breaker.{row[0]}.state", row[1]))
            rows.append((f"cluster.breaker.{row[0]}.failure_rate", row[2]))
        return rows

    def worker_rows(self, prefix: str = "server") -> list[tuple[str, object]]:
        """Per-worker (stat, value) rows, rendered from :meth:`snapshot`;
        shared by SHOW CLUSTER and the worker section SHOW SERVER grows
        when a cluster is attached."""
        rows: list[tuple[str, object]] = []
        for worker in self.snapshot()["workers"]:
            base = f"{prefix}.worker.{worker['worker_id']}"
            rows.extend(
                [
                    (f"{base}.pid", worker["pid"]),
                    (f"{base}.state", worker["state"]),
                    (f"{base}.models", ",".join(worker["models"])),
                    (f"{base}.inflight", worker["inflight"]),
                    (f"{base}.heartbeat_age_ms", worker["heartbeat_age_ms"]),
                    (f"{base}.restarts", worker["restarts"]),
                ]
            )
        return rows

    def snapshot(self) -> dict:
        """The ``cluster`` section of a diagnostics bundle (JSON-safe)."""
        now = time.monotonic()
        with self._lock:
            workers = [
                {
                    "worker_id": wid,
                    "pid": handle.pid,
                    "state": handle.state,
                    "restarts": handle.restarts,
                    "inflight": handle.inflight,
                    "heartbeat_age_ms": round(
                        handle.heartbeat_age_s(now) * 1e3, 1
                    ),
                    "models": sorted(handle.loaded),
                }
                for wid, handle in sorted(self._handles.items())
            ]
            placement = {
                name: list(wids) for name, wids in sorted(self._placed.items())
            }
            load_failures = {
                name: str(error)
                for name, error in sorted(self._load_failures.items())
            }
        return {
            "workers": workers,
            "placement": placement,
            "load_failures": load_failures,
            "replication": self.replication,
            "start_method": self.start_method,
            "counters": {
                "completed": int(self._m_requests["completed"].value),
                "failed": int(self._m_requests["failed"].value),
                "rerouted": int(self._m_requests["rerouted"].value),
                "reroutes": int(self._m_reroutes.value),
                "shm_fallbacks": int(self._m_shm_fallback.value),
                "spawns": int(self._m_spawns.value),
                "crashes": int(self._m_crashes.value),
                "respawns": int(self._m_respawns.value),
            },
        }
