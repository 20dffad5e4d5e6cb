"""One cluster worker: a model-hosting child process and its handle.

``_worker_main`` is the child's entire life: build a private in-memory
:class:`~repro.session.Database` (telemetry off — the parent owns
observability), register the models the placement layer assigns, and
drain the control pipe.  Inference requests arrive as
:class:`~repro.cluster.shm.TensorRef` descriptors naming one of the
parent's reusable :class:`~repro.cluster.shm.Slot`\\ s: the features are
read out of the slot's input region and the labels written into its
label region.  The worker attaches each slot on first use and keeps the
mapping for its lifetime, so a steady-state request maps nothing new;
the pipe only ever carries descriptors and heartbeats (the doorbell and
the crash channel), never tensor payloads.

Heartbeats come from a dedicated thread, not the serve loop: a model
load or a long inference must not look like a wedge to the parent's
monitor, whose heartbeat timeout is far shorter than the request
timeout.  The serve loop and the heartbeat thread share the pipe's send
side under one lock.

The function is module-level and its arguments picklable, so both
``fork`` and ``spawn`` start methods work.

:class:`WorkerHandle` is the parent-side view: the process, its pipe,
the heartbeat clock, the set of models acked as loaded, the free
transport slots of the current generation, and the liveness state the
router folds into replica choice.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass, field

from . import shm as shm_transport

#: Parent -> worker message tags.
MSG_LOAD = "load"  # (MSG_LOAD, model_name, pickled_model_bytes)
#: (MSG_PREDICT, req_id, model, in_ref, out_name, out_offset, out_cap):
#: labels go into ``out_cap`` bytes at ``out_offset`` of segment
#: ``out_name`` (the request's slot), or inline when ``out_name`` is None.
MSG_PREDICT = "predict"
MSG_STOP = "stop"  # (MSG_STOP,)

#: Worker -> parent message tags.
MSG_READY = "ready"  # (MSG_READY, pid)
MSG_LOADED = "loaded"  # (MSG_LOADED, model_name)
MSG_LOAD_ERR = "load_err"  # (MSG_LOAD_ERR, model_name, payload)
MSG_HEARTBEAT = "hb"  # (MSG_HEARTBEAT, inflight)
MSG_OK = "ok"  # (MSG_OK, req_id, out_ref)
MSG_ERR = "err"  # (MSG_ERR, req_id, payload) payload: pickled exc | (type, msg)

#: Worker liveness states surfaced by SHOW CLUSTER / SHOW SERVER.
STARTING = "starting"
READY = "ready"
DEAD = "dead"
STOPPED = "stopped"


def _worker_main(conn, worker_id: int, config) -> None:
    """Child-process entry point: serve until MSG_STOP or parent EOF."""
    from multiprocessing import resource_tracker

    from ..session import Database

    # Shed the parent's resource tracker.  A worker forked after the
    # parent has created segments inherits the parent's tracker pipe;
    # the unregister each attach performs would then erase the *parent's*
    # registration, and the parent's own unlink would double-unregister
    # (KeyError tracebacks in the shared tracker).  The state must be
    # reset *in place* — ``shared_memory`` binds the module-level
    # register/unregister to the original instance — so the first attach
    # spawns a tracker private to this process.  Its lock is replaced too:
    # a parent thread creating a segment may hold it at fork time, and
    # the copy would stay locked forever, hanging this worker's first
    # attach while its heartbeats kept it looking healthy.
    try:
        tracker = resource_tracker._resource_tracker
        if tracker._fd is not None:
            os.close(tracker._fd)
        tracker._fd = None
        tracker._pid = None
        tracker._lock = threading.RLock()
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    shm_transport.IN_WORKER = True

    hb_interval_s = config.cluster_heartbeat_interval_ms / 1e3
    send_lock = threading.Lock()
    stopping = threading.Event()

    def _send(msg: tuple) -> None:
        with send_lock:
            conn.send(msg)

    def _heartbeat_loop() -> None:
        # Independent of the serve loop so a multi-second model load or
        # inference never starves the parent of heartbeats.
        while not stopping.wait(hb_interval_s):
            try:
                _send((MSG_HEARTBEAT, 0))
            except (BrokenPipeError, OSError, ValueError):
                return  # parent went away; the serve loop will exit too

    heartbeat = threading.Thread(
        target=_heartbeat_loop, name="repro-cluster-hb", daemon=True
    )
    heartbeat.start()
    db = Database(config=config)
    slots = shm_transport.Attachments()
    try:
        _send((MSG_READY, os.getpid()))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # parent went away; nothing left to serve
            tag = msg[0]
            if tag == MSG_STOP:
                break
            if tag == MSG_LOAD:
                _send(_load_one(db, msg[1], msg[2]))
            elif tag == MSG_PREDICT:
                _send(_serve_one(db, slots, *msg[1:]))
    finally:
        stopping.set()
        heartbeat.join(timeout=hb_interval_s * 2 + 1.0)
        slots.close()
        try:
            db.close()
        except Exception:  # pragma: no cover - best-effort shutdown
            pass
        conn.close()


def _load_one(db, name: str, model_bytes: bytes) -> tuple:
    """Unpickle + register one placed model; returns the ack message.

    A load failure must not kill the process: the parent would respawn
    it and replay the identical load forever, and the caller would only
    ever see a request timeout.  Instead the real error travels back as
    ``MSG_LOAD_ERR`` and the pool stops placing the model here.
    """
    try:
        db.register_model(pickle.loads(model_bytes), name=name)
        return (MSG_LOADED, name)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        try:
            payload = pickle.dumps(exc)
        except Exception:
            payload = (type(exc).__name__, str(exc))
        return (MSG_LOAD_ERR, name, payload)


def _serve_one(
    db, slots, req_id: int, model: str, in_ref, out_name, out_offset, out_cap
) -> tuple:
    """Run one inference; returns the response message tuple."""
    try:
        features = shm_transport.read_array(in_ref, slots.buf(in_ref.segment))
        labels = db.predict_labels(model, features)
        if out_name is None:
            out_ref = shm_transport.unshared_ref(labels, 0)
        else:
            out_ref = shm_transport.write_into(
                out_name, out_cap, labels, out_offset, slots.buf(out_name)
            )
        return (MSG_OK, req_id, out_ref)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        try:
            payload = pickle.dumps(exc)
        except Exception:
            payload = (type(exc).__name__, str(exc))
        return (MSG_ERR, req_id, payload)


@dataclass
class WorkerHandle:
    """Parent-side state for one worker slot.

    The slot's ``worker_id`` is stable across respawns; ``generation``
    counts process incarnations so late messages from a dead process
    can be discarded.
    """

    worker_id: int
    process: object = None  # multiprocessing.Process
    conn: object = None  # parent end of the duplex pipe
    generation: int = 0
    state: str = STARTING
    pid: int | None = None
    restarts: int = 0
    inflight: int = 0
    draining: bool = False  # rolling restart: stop admitting, finish in-flight
    last_heartbeat: float = field(default_factory=time.monotonic)
    loaded: set = field(default_factory=set)
    free_slots: list = field(default_factory=list)  # this generation's idle Slots
    send_lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def alive(self) -> bool:
        return (
            self.state == READY
            and self.process is not None
            and self.process.is_alive()
        )

    def heartbeat_age_s(self, now: float | None = None) -> float:
        return max(0.0, (now or time.monotonic()) - self.last_heartbeat)

    def send(self, msg: tuple) -> bool:
        """Ship one message; False when the pipe is already broken."""
        with self.send_lock:
            try:
                self.conn.send(msg)
                return True
            except (BrokenPipeError, OSError, ValueError):
                return False
