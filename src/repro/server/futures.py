"""Per-request futures handed back by :meth:`ModelServer.submit`.

A :class:`RequestFuture` is the client's handle to one in-flight
inference request: it blocks on :meth:`result` until the micro-batcher
has executed the batch containing the request, then yields the
per-request slice of the batched prediction.  Failures (deadline drops,
engine errors, server shutdown) surface as the stored exception.

The server also keeps its scheduling metadata here — enqueue time,
deadline, and the measured queue-vs-execute split — so telemetry can
attribute latency without a side table.

A future is settled exactly once: the first :meth:`RequestFuture._resolve`
or :meth:`RequestFuture._fail` wins and later calls are no-ops.  Waiters
block on one pre-acquired ``threading.Lock`` that settling releases, so a
future costs one lock, not an ``Event`` (a condition, a lock and a waiter
deque).
"""

from __future__ import annotations

import enum
import threading
import time

import numpy as np

from ..errors import ServerError

#: Guards the claim step of settling (state check + write) for every
#: future, so two threads settling one future cannot both win.
_SETTLE = threading.Lock()


class RequestState(enum.Enum):
    """Lifecycle of one submitted request."""

    PENDING = "pending"  # queued, waiting for a batch slot
    DONE = "done"  # prediction available
    FAILED = "failed"  # engine raised; exception stored
    SHED = "shed"  # dropped by admission control or deadline policy


class RequestFuture:
    """A write-once result slot resolved by a serving worker."""

    def __init__(
        self,
        request_id: int,
        model: str,
        features: np.ndarray,
        deadline: float | None,
        enqueued_at: float | None = None,
    ):
        self.request_id = request_id
        self.model = model
        self.features = features
        #: Absolute ``time.monotonic()`` deadline, or None for no SLA.
        self.deadline = deadline
        self.enqueued_at = (
            enqueued_at if enqueued_at is not None else time.monotonic()
        )
        #: Seconds spent queued before its batch started executing.
        self.queue_seconds: float | None = None
        #: Seconds the batch containing this request spent in the engine.
        self.execute_seconds: float | None = None
        #: Trace anchor minted at submit (None when tracing is disabled);
        #: workers execute the batch under a member's context so engine
        #: spans inherit its trace id.
        self.trace = None
        #: Detached request-lifecycle span, closed on resolution from
        #: whichever thread resolves the future.
        self.span = None
        #: Held until the future settles; waiters acquire and pass it on.
        self._waiter = threading.Lock()
        self._waiter.acquire()
        self._state = RequestState.PENDING
        self._result: np.ndarray | None = None
        self._exception: BaseException | None = None

    @property
    def rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def trace_id(self) -> int | None:
        """The request's trace id (None when tracing is disabled)."""
        return self.trace.trace_id if self.trace is not None else None

    @property
    def state(self) -> RequestState:
        return self._state

    def done(self) -> bool:
        return self._state is not RequestState.PENDING

    def shed(self) -> bool:
        return self._state is RequestState.SHED

    def expired(self, now: float | None = None) -> bool:
        """True if the deadline has passed (False when there is none)."""
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) > self.deadline

    def _wait(self, timeout: float | None) -> None:
        """Block until settled; TimeoutError after ``timeout`` seconds."""
        if self._state is not RequestState.PENDING:
            return
        waiter = self._waiter
        if timeout is None:
            acquired = waiter.acquire()
        else:
            acquired = waiter.acquire(timeout=max(0.0, timeout))
        if acquired:
            waiter.release()  # wake the next thread blocked here
        elif self._state is RequestState.PENDING:
            raise TimeoutError(
                f"request {self.request_id} for model {self.model!r} "
                f"did not resolve within {timeout}s"
            )

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until resolved; returns predictions or raises the failure."""
        self._wait(timeout)
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until resolved; returns the stored failure (None if ok)."""
        self._wait(timeout)
        return self._exception

    # -- resolution (server side) ----------------------------------------

    def _settle(
        self,
        state: RequestState,
        result: np.ndarray | None = None,
        exc: BaseException | None = None,
        queue_seconds: float | None = None,
        execute_seconds: float | None = None,
    ) -> bool:
        """Store the outcome and wake waiters; False if already settled."""
        with _SETTLE:
            if self._state is not RequestState.PENDING:
                return False
            self._result = result
            self._exception = exc
            self.queue_seconds = queue_seconds
            self.execute_seconds = execute_seconds
            self._state = state
        self._waiter.release()
        return True

    def _resolve(
        self,
        predictions: np.ndarray,
        queue_seconds: float,
        execute_seconds: float,
    ) -> None:
        if not self._settle(
            RequestState.DONE, predictions, None, queue_seconds, execute_seconds
        ):
            return
        if self.span is not None:
            self.span.finish(
                outcome="completed",
                queue_ms=round(queue_seconds * 1e3, 3),
                execute_ms=round(execute_seconds * 1e3, 3),
            )

    def _fail(
        self, exc: BaseException, state: RequestState = RequestState.FAILED
    ) -> None:
        if not self._settle(state, exc=exc):
            return
        if self.span is not None:
            self.span.finish(outcome=state.value, error=type(exc).__name__)

    def __repr__(self) -> str:
        return (
            f"RequestFuture(id={self.request_id}, model={self.model!r}, "
            f"rows={self.rows}, state={self._state.value})"
        )


def resolve_all(
    futures: list[RequestFuture], exc: BaseException | None = None
) -> None:
    """Fail every unresolved future in ``futures`` (shutdown/batch error)."""
    error = exc if exc is not None else ServerError("request abandoned")
    for future in futures:
        if not future.done():
            future._fail(error)
