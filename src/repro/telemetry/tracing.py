"""Span-based request tracing with Chrome-trace export.

A :class:`Tracer` hands out context-managed spans; entering a span while
another is open makes it a child (per thread), so one ``PREDICT`` query
produces a tree like::

    query
    ├── parse
    ├── plan
    └── execute
        └── predict:fraud
            └── stage0:udf-centric

Cross-thread requests use an explicit :class:`TraceContext`: the span
that roots a request (minted in ``Database.execute`` or
``ModelServer.submit``) exposes :meth:`Span.context`, and a worker thread
re-anchors under it with :meth:`Tracer.context` so every span it opens
shares the request's ``trace_id`` with correct parentage — the request no
longer shatters into per-thread orphans.  Spans that outlive a single
``with`` block (a request's lifecycle from submit to resolution) use
:meth:`Tracer.start_span` and finish from any thread via
:meth:`Span.finish`.

Finished spans accumulate in a ring of the newest ``max_spans`` (each
eviction counts into ``Tracer.dropped`` and the
``tracer_spans_dropped_total`` metric) until exported with
:meth:`Tracer.export_chrome_trace`, which
writes the Chrome trace-event JSON format — load the file at
``chrome://tracing`` or https://ui.perfetto.dev.  The export carries
``process_name``/``thread_name`` metadata records (real thread ids, so
server workers render by name in Perfetto) and flow events linking a
batch span to every member request it coalesced.

Timestamps come from ``time.perf_counter`` — durations are exact, the
epoch is arbitrary (Chrome tracing only cares about relative times).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, Iterator

from .registry import MetricsRegistry


@dataclass(frozen=True)
class TraceContext:
    """A portable anchor into one request's trace.

    Carries the request's ``trace_id``, the span id new children should
    parent under, and free-form baggage (model, SLA deadline, ...).
    Immutable, so it can be handed across threads and queues freely.
    """

    trace_id: int
    span_id: int
    baggage: tuple[tuple[str, object], ...] = ()

    def get(self, key: str, default: object = None) -> object:
        for k, v in self.baggage:
            if k == key:
                return v
        return default


@dataclass
class Span:
    """One timed region of work."""

    name: str
    category: str
    span_id: int
    parent_id: int | None
    start_s: float
    end_s: float | None = None
    args: dict[str, object] = field(default_factory=dict)
    #: Every span belongs to exactly one trace; a root span's trace id is
    #: its own span id.
    trace_id: int = 0
    #: OS thread that opened the span (Chrome-trace ``tid``).
    tid: int = 0
    #: Trace ids of other requests this span links to (flow events).
    links: tuple[int, ...] = ()
    _tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **args: object) -> None:
        """Attach extra key/value detail to the span."""
        self.args.update(args)

    def link(self, *trace_ids: int) -> None:
        """Link other traces to this span (rendered as flow events)."""
        self.links = self.links + tuple(int(t) for t in trace_ids)

    def context(self, **baggage: object) -> TraceContext:
        """A :class:`TraceContext` anchoring new work under this span."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=self.span_id,
            baggage=tuple(baggage.items()),
        )

    def finish(self, **args: object) -> None:
        """Finish a detached span (started via ``Tracer.start_span``).

        Idempotent and callable from any thread; the finishing thread is
        not recorded (the opening thread's ``tid`` stands).
        """
        if args:
            self.args.update(args)
        tracer = self._tracer
        if tracer is None or self.end_s is not None:
            return
        self.end_s = time.perf_counter()
        tracer._collect(self)

    # ``with tracer.span(...)``: the span is the open child while inside.
    def __enter__(self) -> "Span":
        self._tracer._stack().append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end_s = time.perf_counter()
        self._tracer._stack().pop()
        self._tracer._collect(self)


class _InertSpan:
    """The span a disabled tracer hands out: shared, reentrant, inert."""

    __slots__ = ()
    name = category = ""
    span_id = trace_id = tid = 0
    parent_id = None
    start_s = end_s = duration_s = 0.0
    links: tuple[int, ...] = ()
    args: dict[str, object] = {}

    def set(self, **args: object) -> None:
        pass

    def link(self, *trace_ids: int) -> None:
        pass

    def context(self, **baggage: object) -> None:
        return None

    def finish(self, **args: object) -> None:
        pass

    def __enter__(self) -> "_InertSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_INERT_SPAN = _InertSpan()

#: What a disabled tracer's :meth:`Tracer.context` returns (yields None).
_NO_ANCHOR = nullcontext()


class Tracer:
    """Collects nested spans; per-thread nesting, shared finished list.

    Built with ``enabled=False`` it records nothing: ``span``,
    ``start_span`` and ``context`` hand out one shared inert span or
    context and build no :class:`Span`.
    """

    def __init__(self, max_spans: int = 16384, metrics=None, enabled: bool = True):
        if max_spans < 1:
            from ..errors import TelemetryError

            raise TelemetryError("max_spans must be >= 1")
        self.enabled = enabled
        self._finished: deque[Span] = deque(maxlen=max_spans)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._thread_names: dict[int, str] = {}
        self.dropped = 0  # zeroed by clear(); the counter stays monotonic
        registry = metrics if metrics is not None else MetricsRegistry()
        self._m_dropped = registry.counter(
            "tracer_spans_dropped_total",
            "Finished spans dropped by the tracer ring buffer",
        )

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(
        self,
        name: str,
        category: str,
        args: dict[str, object],
        parent: "Span | TraceContext | None",
    ) -> Span:
        tid = threading.get_ident()
        if tid not in self._thread_names:
            with self._lock:
                self._thread_names[tid] = threading.current_thread().name
        span_id = next(self._ids)
        if parent is not None:
            parent_id: int | None = parent.span_id
            trace_id = parent.trace_id
        else:
            parent_id = None
            trace_id = span_id  # a root span roots its own trace
        return Span(
            name=name,
            category=category,
            span_id=span_id,
            parent_id=parent_id,
            start_s=time.perf_counter(),
            args=args,
            trace_id=trace_id,
            tid=tid,
            _tracer=self,
        )

    def _collect(self, span: Span) -> None:
        with self._lock:
            if len(self._finished) == self._finished.maxlen:
                self.dropped += 1  # the ring evicts its oldest span
                self._m_dropped.inc()
            self._finished.append(span)

    def span(self, name: str, category: str = "repro", **args: object) -> Span:
        """A span to open with ``with``: a child of this thread's current
        span or anchor, finished and collected when the block exits."""
        if not self.enabled:
            return _INERT_SPAN
        stack = self._stack()
        return self._open(name, category, args, stack[-1] if stack else None)

    def start_span(
        self,
        name: str,
        category: str = "repro",
        ctx: TraceContext | None = None,
        **args: object,
    ) -> Span:
        """Open a detached span that may finish on another thread.

        Not pushed on the thread-local stack; parentage comes from ``ctx``
        when given, else from the calling thread's current span.  Close it
        with :meth:`Span.finish` (or :meth:`end_span`) from any thread.
        """
        if not self.enabled:
            return _INERT_SPAN
        parent: Span | TraceContext | None = ctx
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        return self._open(name, category, args, parent)

    def end_span(self, span: Span, **args: object) -> None:
        """Finish a detached span (alias for :meth:`Span.finish`)."""
        span.finish(**args)

    def context(self, ctx: TraceContext | None) -> ContextManager[None]:
        """Anchor this thread's new spans under a request's context.

        Pushes a lightweight anchor onto the thread-local stack: spans
        opened inside the block inherit ``ctx.trace_id`` and parent under
        ``ctx.span_id``, even though the context was minted on another
        thread.  ``ctx=None`` is a no-op (requests without tracing).
        """
        if ctx is None or not self.enabled:
            return _NO_ANCHOR
        return self._anchored(ctx)

    @contextmanager
    def _anchored(self, ctx: TraceContext) -> Iterator[None]:
        stack = self._stack()
        stack.append(ctx)
        try:
            yield None
        finally:
            stack.pop()

    def current_context(self, **baggage: object) -> TraceContext | None:
        """The calling thread's innermost span/anchor as a context."""
        stack = self._stack()
        if not stack:
            return None
        top = stack[-1]
        if isinstance(top, TraceContext):
            if baggage:
                return TraceContext(
                    top.trace_id, top.span_id, top.baggage + tuple(baggage.items())
                )
            return top
        return top.context(**baggage)

    def current_trace_id(self) -> int | None:
        """The trace id active on the calling thread, if any."""
        stack = self._stack()
        return stack[-1].trace_id if stack else None

    @property
    def finished(self) -> list[Span]:
        """Completed spans, in completion order (children before parents)."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self.dropped = 0

    def export_chrome_trace(self, path: str) -> int:
        """Write finished spans as Chrome trace-event JSON; returns the
        number of duration events written (metadata/flow records ride
        along for free).  Disabled, it writes an empty trace."""
        if not self.enabled:
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"traceEvents": [], "displayTimeUnit": "ms"}, f)
            return 0
        spans = self.finished
        with self._lock:
            thread_names = dict(self._thread_names)
        pid = os.getpid()
        events: list[dict] = []
        # Metadata records: process name once, thread names per tid seen.
        meta: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "repro"},
            }
        ]
        tids_seen = {span.tid or 1 for span in spans}
        for tid in sorted(tids_seen):
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread_names.get(tid, f"thread-{tid}")},
                }
            )
        roots = {s.trace_id: s for s in spans if s.span_id == s.trace_id}
        flows: list[dict] = []
        for span in spans:
            tid = span.tid or 1
            args: dict[str, object] = {"span_id": span.span_id}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            if span.trace_id:
                args["trace_id"] = span.trace_id
            args.update(span.args)
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": span.start_s * 1e6,
                    "dur": span.duration_s * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
            # Flow events: an arrow from each linked request's root span
            # to this span (how a batch points at its member requests).
            for linked in span.links:
                source = roots.get(linked)
                if source is None:
                    continue
                flows.append(
                    {
                        "name": "request-flow",
                        "cat": "flow",
                        "ph": "s",
                        "id": f"{linked}-{span.span_id}",
                        "ts": source.start_s * 1e6,
                        "pid": pid,
                        "tid": source.tid or 1,
                    }
                )
                flows.append(
                    {
                        "name": "request-flow",
                        "cat": "flow",
                        "ph": "f",
                        "bp": "e",
                        "id": f"{linked}-{span.span_id}",
                        "ts": span.start_s * 1e6,
                        "pid": pid,
                        "tid": tid,
                    }
                )
        # Chrome tracing nests by (tid, ts, dur) containment, so events can
        # be written in any order; sort by start for readable raw JSON.
        events.sort(key=lambda e: e["ts"])
        count = len(events)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "traceEvents": meta + events + flows,
                    "displayTimeUnit": "ms",
                },
                f,
                default=str,
            )
        return count


