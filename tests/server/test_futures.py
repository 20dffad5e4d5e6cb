"""RequestFuture: the write-once result slot handed to clients."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import DeadlineExceededError, ServerError
from repro.server import RequestFuture, RequestState, resolve_all


def make_future(rows: int = 1, deadline: float | None = None) -> RequestFuture:
    return RequestFuture(1, "m", np.zeros((rows, 4)), deadline, enqueued_at=0.0)


def test_resolve_roundtrip():
    future = make_future(rows=3)
    assert future.rows == 3
    assert not future.done()
    predictions = np.array([0, 1, 0])
    future._resolve(predictions, queue_seconds=0.01, execute_seconds=0.02)
    assert future.done()
    assert future.state is RequestState.DONE
    assert np.array_equal(future.result(timeout=0), predictions)
    assert future.exception(timeout=0) is None
    assert future.queue_seconds == pytest.approx(0.01)
    assert future.execute_seconds == pytest.approx(0.02)


def test_result_raises_stored_exception():
    future = make_future()
    future._fail(DeadlineExceededError("too late"), RequestState.SHED)
    assert future.shed()
    with pytest.raises(DeadlineExceededError, match="too late"):
        future.result(timeout=0)
    assert isinstance(future.exception(timeout=0), DeadlineExceededError)


def test_result_timeout():
    future = make_future()
    with pytest.raises(TimeoutError):
        future.result(timeout=0.01)


def test_result_blocks_until_resolved():
    future = make_future()

    def resolver():
        future._resolve(np.array([1]), 0.0, 0.0)

    thread = threading.Timer(0.02, resolver)
    thread.start()
    assert np.array_equal(future.result(timeout=5.0), np.array([1]))
    thread.join()


def test_expired():
    assert not make_future(deadline=None).expired(now=100.0)
    assert make_future(deadline=1.0).expired(now=2.0)
    assert not make_future(deadline=3.0).expired(now=2.0)


def test_resolve_all_skips_done_futures():
    done = make_future()
    done._resolve(np.array([0]), 0.0, 0.0)
    pending = make_future()
    resolve_all([done, pending])
    assert np.array_equal(done.result(timeout=0), np.array([0]))
    with pytest.raises(ServerError):
        pending.result(timeout=0)


class CountingSpan:
    """A request span stand-in that counts how often it was finished."""

    def __init__(self):
        self.finishes: list[dict] = []

    def finish(self, **args):
        self.finishes.append(args)


def test_every_blocked_waiter_gets_the_value():
    future = make_future()
    start = threading.Barrier(9)
    results: list = []

    def waiter():
        start.wait()
        results.append(future.result(timeout=5.0))

    threads = [threading.Thread(target=waiter) for __ in range(8)]
    for thread in threads:
        thread.start()
    start.wait()
    time.sleep(0.05)  # let the waiters block
    future._resolve(np.array([7]), 0.0, 0.0)
    for thread in threads:
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    assert len(results) == 8
    assert all(np.array_equal(r, np.array([7])) for r in results)


def test_zero_timeout_on_pending_future_raises_at_once():
    future = make_future()
    for wait in (future.result, future.exception):
        with pytest.raises(TimeoutError):
            wait(0)
    assert not future.done()
    assert future.state is RequestState.PENDING


def test_first_outcome_wins():
    future = make_future()
    future.span = CountingSpan()
    future._resolve(np.array([1]), queue_seconds=0.5, execute_seconds=0.25)
    future._fail(ServerError("late failure"))
    future._resolve(np.array([2]), queue_seconds=9.0, execute_seconds=9.0)
    assert future.state is RequestState.DONE
    assert np.array_equal(future.result(timeout=0), np.array([1]))
    assert future.exception(timeout=0) is None
    assert future.queue_seconds == pytest.approx(0.5)
    assert len(future.span.finishes) == 1
    assert future.span.finishes[0]["outcome"] == "completed"


def test_failure_is_final_too():
    future = make_future()
    future.span = CountingSpan()
    future._fail(DeadlineExceededError("too late"), RequestState.SHED)
    future._resolve(np.array([1]), 0.0, 0.0)
    assert future.shed()
    with pytest.raises(DeadlineExceededError):
        future.result(timeout=0)
    assert [f["outcome"] for f in future.span.finishes] == ["shed"]


def test_concurrent_settles_resolve_once():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _race_settles()
    finally:
        sys.setswitchinterval(interval)


def _race_settles():
    for __ in range(50):
        future = make_future()
        future.span = CountingSpan()
        start = threading.Barrier(4)

        def settle(i):
            start.wait()
            if i % 2:
                future._fail(ServerError(f"loser {i}"))
            else:
                future._resolve(np.array([i]), 0.0, 0.0)

        threads = [threading.Thread(target=settle, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert future.done()
        assert len(future.span.finishes) == 1


def test_resolve_all_leaves_done_spans_alone():
    done = make_future()
    done.span = CountingSpan()
    done._resolve(np.array([0]), 0.0, 0.0)
    pending = make_future()
    pending.span = CountingSpan()
    resolve_all([done, pending], ServerError("batch failed"))
    assert [f["outcome"] for f in done.span.finishes] == ["completed"]
    assert [f["outcome"] for f in pending.span.finishes] == ["failed"]
    assert isinstance(pending.exception(timeout=0), ServerError)
