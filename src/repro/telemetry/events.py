"""The flight recorder: a bounded ring of typed structured events.

A :class:`FlightRecorder` is the system's black box.  Every layer that
makes a request-visible decision emits one :class:`Event` — request
admitted/shed/rejected/retried/expired/completed, batch formed and
executed, engine stage rescued or given up, breaker transitions, fault
injections, sidecar commits, result-cache hits and misses — into a
``deque(maxlen=...)`` ring that keeps the newest events and counts
evictions, so a postmortem always has the last-N record of *what
happened, in order* even after hours of traffic.

Events carry the emitting request's ``trace_id`` when one is active, so
the ring joins against the span tracer: ``SHOW EVENTS [WHERE ...]``
queries the ring relationally and ``SHOW TIMELINE <trace_id>`` replays
one request's lifecycle (see :func:`timeline_rows`).

When telemetry is disabled the shared :data:`NULL_RECORDER` is used:
``emit`` is a single no-op method call, preserving the disabled fast
path's overhead contract.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import NamedTuple

from ..relational.schema import ColumnType, Schema
from .registry import MetricsRegistry

#: Event kinds the system emits (free-form kinds are allowed; these are
#: the ones wired in and asserted on by tests).
EVENT_KINDS: tuple[str, ...] = (
    "request.admitted",
    "request.rejected",
    "request.shed",
    "request.broken",
    "request.expired",
    "request.retried",
    "request.completed",
    "request.failed",
    "batch.formed",
    "batch.executed",
    "batch.isolated",
    "stage.rescued",
    "stage.gave_up",
    "breaker.open",
    "breaker.half_open",
    "breaker.closed",
    "fault.injected",
    "sidecar.commit",
    "cache.hit",
    "cache.miss",
    "server.worker_error",
    "cluster.spawn",
    "cluster.crash",
    "cluster.respawn",
    "cluster.reroute",
    "cluster.shm_fallback",
    "cluster.load_error",
    "slo.burn_start",
    "slo.burn_stop",
    "workload.regression",
    "lifecycle.publish",
    "deploy.prepare",
    "deploy.start",
    "deploy.state",
    "deploy.promote",
    "deploy.rollback",
    "deploy.shadow_diverged",
    "server.drain_abandoned",
    "cluster.rolling_restart",
)

#: The ``events`` system relation (``SHOW EVENTS [WHERE ...]``).
EVENT_SCHEMA = Schema.of(
    ("seq", ColumnType.INT),
    ("ts_ms", ColumnType.DOUBLE),
    ("kind", ColumnType.TEXT),
    ("trace_id", ColumnType.INT),
    ("detail", ColumnType.TEXT),
)
EVENT_COLUMNS = EVENT_SCHEMA.names

#: The ``timeline`` system relation: :func:`timeline_rows` of every trace.
TIMELINE_SCHEMA = Schema.of(
    ("trace_id", ColumnType.INT),
    ("at_ms", ColumnType.DOUBLE),
    ("source", ColumnType.TEXT),
    ("what", ColumnType.TEXT),
    ("detail", ColumnType.TEXT),
)
#: Columns for ``SHOW TIMELINE <trace_id>`` cursors.
TIMELINE_COLUMNS = TIMELINE_SCHEMA.names[1:]


class Event(NamedTuple):
    """One structured flight-recorder entry.

    An immutable named tuple: the ring builds one per emit on the serving
    hot path, where a frozen dataclass costs over twice as much.
    """

    seq: int
    ts_s: float  # time.perf_counter epoch, same clock as tracer spans
    kind: str
    trace_id: int | None = None
    fields: tuple[tuple[str, object], ...] = ()

    def get(self, key: str, default: object = None) -> object:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    @property
    def detail(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.fields)

    def involves(self, trace_id: int) -> bool:
        """True when this event belongs to (or links) the given trace."""
        if self.trace_id == trace_id:
            return True
        traces = self.get("traces")
        return isinstance(traces, (tuple, list)) and trace_id in traces


class FlightRecorder:
    """A thread-safe bounded event ring (keeps newest, counts evictions)."""

    enabled = True

    def __init__(self, max_events: int = 4096, metrics=None):
        if max_events < 1:
            from ..errors import TelemetryError

            raise TelemetryError("max_events must be >= 1")
        self.max_events = max_events
        self._ring: deque[Event] = deque(maxlen=max_events)
        self._lock = threading.Lock()
        self._seq = 0
        self.emitted_total = 0
        self.evicted_total = 0
        self._registry = metrics if metrics is not None else MetricsRegistry()
        self._m_by_kind: dict[str, object] = {}

    def emit(self, kind: str, trace_id: int | None = None, **fields: object) -> Event:
        """Record one event; cheap enough for hot paths when enabled."""
        with self._lock:
            self._seq += 1
            event = Event(
                self._seq, time.perf_counter(), kind, trace_id,
                tuple(fields.items()),
            )
            if len(self._ring) == self.max_events:
                self.evicted_total += 1
            self._ring.append(event)
            self.emitted_total += 1
        counter = self._m_by_kind.get(kind)
        if counter is None:
            counter = self._registry.counter(
                "flight_events_total", "Flight-recorder events", kind=kind
            )
            self._m_by_kind[kind] = counter
        counter.inc()
        return event

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound (oldest-first)."""
        return self.evicted_total

    def events(
        self,
        kind: str | None = None,
        trace_id: int | None = None,
        limit: int | None = None,
    ) -> list[Event]:
        """Retained events, oldest first, optionally filtered."""
        with self._lock:
            out = list(self._ring)
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if trace_id is not None:
            out = [e for e in out if e.involves(trace_id)]
        if limit is not None and limit >= 0:
            out = out[-limit:]
        return out

    def rows(self) -> list[tuple]:
        """``SHOW EVENTS`` rows (:data:`EVENT_COLUMNS`), oldest first."""
        return [
            (e.seq, round(e.ts_s * 1e3, 3), e.kind, e.trace_id, e.detail)
            for e in self.events()
        ]

    def as_dicts(self, limit: int | None = None) -> list[dict]:
        """JSON-safe dicts for diagnostics bundles, oldest first."""
        return [
            {
                "seq": e.seq,
                "ts_ms": round(e.ts_s * 1e3, 3),
                "kind": e.kind,
                "trace_id": e.trace_id,
                "fields": {k: json_safe(v) for k, v in e.fields},
            }
            for e in self.events(limit=limit)
        ]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.emitted_total = 0
            self.evicted_total = 0


def json_safe(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [json_safe(v) for v in value]
    return str(value)


def timeline_rows(events: list[Event], spans: list) -> list[tuple]:
    """``SHOW TIMELINE`` rows: one request's merged event/span history.

    Events and finished spans (already filtered to one trace) merge into
    a single relative-time view, followed by summary rows breaking the
    request's latency into queue vs execute vs rescue — the after-the-fact
    answer to "where did this request's time go?".
    """
    entries: list[tuple[float, str, str, str]] = []
    for event in events:
        entries.append((event.ts_s, "event", event.kind, event.detail))
    for span in spans:
        detail = f"dur_ms={span.duration_s * 1e3:.3f}"
        if span.parent_id is not None:
            detail += f" parent={span.parent_id}"
        if span.args:
            detail += " " + " ".join(f"{k}={v}" for k, v in span.args.items())
        entries.append((span.start_s, "span", span.name, detail))
    entries.sort(key=lambda e: e[0])
    if not entries:
        return []
    t0 = entries[0][0]
    rows: list[tuple] = [
        (round((ts - t0) * 1e3, 3), source, what, detail)
        for ts, source, what, detail in entries
    ]
    # Latency breakdown: prefer the resolution event's measured split.
    queue_ms = execute_ms = None
    outcome = "unresolved"
    retries = rescues = 0
    for event in events:
        if event.kind == "request.completed":
            outcome = "completed"
            queue_ms = event.get("queue_ms", queue_ms)
            execute_ms = event.get("execute_ms", execute_ms)
        elif event.kind in ("request.failed", "request.expired", "request.shed"):
            outcome = event.kind.split(".", 1)[1]
        elif event.kind == "request.retried":
            retries += 1
        elif event.kind == "stage.rescued":
            rescues += 1
    # Summary rows sit at the last entry's offset, so at_ms never decreases.
    rows.append((rows[-1][0], "summary", "outcome", outcome))
    if queue_ms is not None:
        rows.append((rows[-1][0], "summary", "queue_ms", str(queue_ms)))
    if execute_ms is not None:
        rows.append((rows[-1][0], "summary", "execute_ms", str(execute_ms)))
    if retries:
        rows.append((rows[-1][0], "summary", "retries", str(retries)))
    if rescues:
        rows.append((rows[-1][0], "summary", "rescues", str(rescues)))
    return rows


def timelines(events: list[Event], spans: list) -> list[tuple]:
    """``sys.timeline`` rows: ``(trace_id, *row)`` for every
    :func:`timeline_rows` row of every trace, traces by ascending id.

    A trace is any id with a finished span or an event that involves it
    (as :meth:`Event.involves` decides: its own id or a ``traces`` link).
    One pass groups the events (oldest first) and the spans (by start)
    per trace.
    """
    grouped: dict[int, tuple[list[Event], list]] = {}
    for event in events:
        traces = event.get("traces")
        ids = set(traces) if isinstance(traces, (tuple, list)) else set()
        if event.trace_id is not None:
            ids.add(event.trace_id)
        for trace_id in ids:
            grouped.setdefault(trace_id, ([], []))[0].append(event)
    for span in sorted(spans, key=lambda s: s.start_s):
        grouped.setdefault(span.trace_id, ([], []))[1].append(span)
    return [
        (trace_id, *row)
        for trace_id in sorted(grouped)
        for row in timeline_rows(*grouped[trace_id])
    ]


class NullRecorder:
    """No-op flight recorder for disabled telemetry."""

    enabled = False
    max_events = 0
    emitted_total = 0
    evicted_total = 0
    dropped = 0

    def emit(self, kind: str, trace_id: int | None = None, **fields: object) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def events(self, kind=None, trace_id=None, limit=None) -> list[Event]:
        return []

    def rows(self) -> list[tuple]:
        return []

    def as_dicts(self, limit: int | None = None) -> list[dict]:
        return []

    def clear(self) -> None:
        pass


#: Shared no-op recorder for disabled telemetry.
NULL_RECORDER = NullRecorder()
