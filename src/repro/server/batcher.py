"""Dynamic micro-batching: coalesce point requests into engine batches.

One :class:`MicroBatcher` guards one model's request queue.  A serving
worker calls :meth:`collect`, which blocks until at least one request is
queued, then holds the batch open for up to ``max_queue_delay_s`` (or
until ``target_batch_size`` rows have accumulated) so concurrent point
requests coalesce into a single batched engine invocation.

The target grows adaptively: if requests are still queued after a batch
is taken, the next window aims for twice as many rows (up to
``max_batch_size``); when the queue drains, the target decays back so an
idle stream is served at batch≈1 with no added latency.  This is the
classic dynamic-batching trade — amortise per-invocation overhead under
load, stay latency-optimal when unloaded — applied to PREDICT calls.

Expired requests (deadline already passed) are shed at collection time
instead of wasting engine work; their futures fail with
:class:`~repro.errors.DeadlineExceededError`.  The batcher counts the
queued requests that carry a deadline, so a queue without any skips the
expiry scan instead of walking every pending request twice per batch.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..errors import DeadlineExceededError
from ..telemetry.events import FlightRecorder
from .futures import RequestFuture, RequestState


@dataclass
class BatcherStats:
    """Lifetime counters for one model's micro-batcher."""

    batches: int = 0
    rows_dispatched: int = 0
    requests_dispatched: int = 0
    deadline_drops: int = 0
    largest_batch_rows: int = 0

    @property
    def mean_batch_rows(self) -> float:
        return self.rows_dispatched / self.batches if self.batches else 0.0


@dataclass
class Batch:
    """One coalesced unit of work handed to a serving worker."""

    model: str
    requests: list[RequestFuture] = field(default_factory=list)

    @property
    def rows(self) -> int:
        return sum(r.rows for r in self.requests)


class MicroBatcher:
    """A bounded-delay, adaptively sized request coalescer for one model."""

    def __init__(
        self,
        model: str,
        max_batch_size: int,
        max_queue_delay_s: float,
        clock=time.monotonic,
        recorder=None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_queue_delay_s < 0:
            raise ValueError("max_queue_delay_s must be >= 0")
        self.model = model
        self._recorder = (
            recorder if recorder is not None else FlightRecorder(enabled=False)
        )
        self.max_batch_size = max_batch_size
        self.max_queue_delay_s = max_queue_delay_s
        self.stats = BatcherStats()
        self._clock = clock
        self._cond = threading.Condition()
        self._pending: deque[RequestFuture] = deque()
        self._queued_rows = 0
        self._deadlined = 0  # queued requests that carry a deadline
        self._target = 1  # adaptive row target for the next window
        self._closed = False
        #: Worker-lease flag: only one worker drains this model at a time,
        #: so the delay window is not split across workers.
        self.leased = False

    # -- queue state -----------------------------------------------------

    @property
    def queued_requests(self) -> int:
        return len(self._pending)

    @property
    def queued_rows(self) -> int:
        return self._queued_rows

    @property
    def target_batch_size(self) -> int:
        return self._target

    @property
    def closed(self) -> bool:
        return self._closed

    # -- intake ----------------------------------------------------------

    def put(self, request: RequestFuture, front: bool = False) -> None:
        """Enqueue a request (``front=True`` fast-paths a tight deadline)."""
        with self._cond:
            was_empty = not self._pending
            if front:
                self._pending.appendleft(request)
            else:
                self._pending.append(request)
            self._queued_rows += request.rows
            if request.deadline is not None:
                self._deadlined += 1
            # Wake the collecting worker only when its wait can end: the
            # first request arrived, or the window's row target is met.
            if was_empty or self._queued_rows >= self._target:
                self._cond.notify()

    # -- batch formation -------------------------------------------------

    def collect(
        self, block: bool = True, poll_interval_s: float = 0.05
    ) -> Batch | None:
        """The next batch; None once closed and drained.

        Returns a non-empty :class:`Batch` whose requests are removed
        from the queue.  Expired requests encountered while forming the
        batch are failed (deadline drop) and never returned.  With
        ``block=False`` an empty queue returns None immediately instead
        of waiting for the first request (the serving workers use this so
        a queue emptied by shedding never wedges a worker).
        """
        with self._cond:
            while True:
                while not self._pending and not self._closed:
                    if not block:
                        return None
                    self._cond.wait(poll_interval_s)
                if not self._pending:
                    return None  # closed and drained
                self._shed_expired_locked()
                if not self._pending:
                    if not block or self._closed:
                        return None
                    continue
                # Hold the window open for stragglers: bounded by the
                # oldest request's enqueue time plus the max delay.
                window_end = self._pending[0].enqueued_at + self.max_queue_delay_s
                now = self._clock()
                while (
                    self._queued_rows < self._target
                    and now < window_end
                    and not self._closed
                ):
                    self._cond.wait(min(window_end - now, poll_interval_s))
                    now = self._clock()
                self._shed_expired_locked()
                if not self._pending:
                    continue
                batch = Batch(self.model)
                rows = 0
                while self._pending:
                    nxt = self._pending[0]
                    if batch.requests and rows + nxt.rows > self.max_batch_size:
                        break
                    self._pending.popleft()
                    self._queued_rows -= nxt.rows
                    if nxt.deadline is not None:
                        self._deadlined -= 1
                    batch.requests.append(nxt)
                    rows += nxt.rows
                self._adapt_locked()
                self.stats.batches += 1
                self.stats.requests_dispatched += len(batch.requests)
                self.stats.rows_dispatched += rows
                self.stats.largest_batch_rows = max(
                    self.stats.largest_batch_rows, rows
                )
                self._recorder.emit(
                    "batch.formed",
                    trace_id=batch.requests[0].trace_id,
                    model=self.model,
                    requests=len(batch.requests),
                    rows=rows,
                    traces=tuple(
                        r.trace_id for r in batch.requests
                        if r.trace_id is not None
                    ),
                )
                return batch

    def _shed_expired_locked(self) -> None:
        if not self._deadlined:
            return
        now = self._clock()
        kept: deque[RequestFuture] = deque()
        while self._pending:
            request = self._pending.popleft()
            if request.expired(now):
                self._queued_rows -= request.rows
                self._deadlined -= 1
                self.stats.deadline_drops += 1
                self._recorder.emit(
                    "request.expired",
                    trace_id=request.trace_id,
                    model=request.model,
                    request_id=request.request_id,
                    queued_s=round(now - request.enqueued_at, 4),
                )
                request._fail(
                    DeadlineExceededError(
                        f"request {request.request_id} for model "
                        f"{request.model!r} expired after "
                        f"{now - request.enqueued_at:.4f}s in queue"
                    ),
                    RequestState.SHED,
                )
            else:
                kept.append(request)
        self._pending = kept

    def _adapt_locked(self) -> None:
        if self._pending:
            # Still backed up: aim bigger next time (batch growth).
            self._target = min(self.max_batch_size, max(2, self._target * 2))
        else:
            # Queue drained: decay toward latency-optimal batch≈1.
            self._target = max(1, self._target // 2)

    # -- shutdown --------------------------------------------------------

    def close(self) -> list[RequestFuture]:
        """Stop intake; returns any requests still queued (unresolved)."""
        with self._cond:
            self._closed = True
            leftovers = list(self._pending)
            self._pending.clear()
            self._queued_rows = 0
            self._deadlined = 0
            self._cond.notify_all()
        return leftovers
