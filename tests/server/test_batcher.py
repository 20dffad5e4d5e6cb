"""MicroBatcher: dynamic coalescing, adaptive growth, deadline shedding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlineExceededError
from repro.server import MicroBatcher, RequestFuture, RequestState


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def request(rid: int, rows: int = 1, deadline: float | None = None) -> RequestFuture:
    return RequestFuture(rid, "m", np.zeros((rows, 4)), deadline, enqueued_at=0.0)


def test_collect_returns_queued_requests_fifo():
    batcher = MicroBatcher("m", max_batch_size=8, max_queue_delay_s=0.0)
    for rid in range(3):
        batcher.put(request(rid))
    batch = batcher.collect()
    assert [r.request_id for r in batch.requests] == [0, 1, 2]
    assert batch.rows == 3
    assert batcher.queued_requests == 0
    assert batcher.stats.batches == 1
    assert batcher.stats.rows_dispatched == 3


def test_nonblocking_collect_on_empty_queue():
    batcher = MicroBatcher("m", max_batch_size=8, max_queue_delay_s=0.0)
    assert batcher.collect(block=False) is None


def test_max_batch_size_splits_but_never_starves():
    batcher = MicroBatcher("m", max_batch_size=4, max_queue_delay_s=0.0)
    batcher.put(request(0, rows=3))
    batcher.put(request(1, rows=3))
    first = batcher.collect()
    # 3 + 3 > 4, so the second request waits for the next batch...
    assert [r.request_id for r in first.requests] == [0]
    second = batcher.collect()
    assert [r.request_id for r in second.requests] == [1]
    # ...and an oversized single request still dispatches alone.
    batcher.put(request(2, rows=9))
    assert batcher.collect().rows == 9


def test_adaptive_target_grows_under_backlog_and_decays_when_drained():
    batcher = MicroBatcher("m", max_batch_size=4, max_queue_delay_s=0.0)
    assert batcher.target_batch_size == 1
    for rid in range(6):
        batcher.put(request(rid))
    batcher.collect()  # backlog remains -> target doubles
    grown = batcher.target_batch_size
    assert grown > 1
    while batcher.queued_requests:
        batcher.collect()
    # Queue drained: the target decays back toward 1.
    for _ in range(8):
        batcher.put(request(99))
        batcher.collect()
    assert batcher.target_batch_size == 1


def test_delay_window_coalesces_late_arrivals():
    clock = FakeClock()
    batcher = MicroBatcher(
        "m", max_batch_size=8, max_queue_delay_s=10.0, clock=clock
    )
    batcher._target = 4  # make the window wait for more rows
    batcher.put(request(0))
    batcher.put(request(1))

    arrivals = iter(range(2, 6))

    def poll_arrival(*args, **kwargs):
        # Each condition-wait tick delivers one more request, then the
        # window closes by filling the target.
        try:
            batcher._pending.append(request(next(arrivals)))
            batcher._queued_rows += 1
        except StopIteration:
            clock.now += 20.0

    batcher._cond.wait = poll_arrival  # type: ignore[method-assign]
    batch = batcher.collect()
    assert len(batch.requests) >= 4


def test_front_insertion_fastpaths_tight_deadlines():
    batcher = MicroBatcher("m", max_batch_size=2, max_queue_delay_s=0.0)
    batcher.put(request(0))
    batcher.put(request(1), front=True)
    batch = batcher.collect()
    assert batch.requests[0].request_id == 1


def test_expired_requests_are_shed_not_dispatched():
    clock = FakeClock(now=5.0)
    batcher = MicroBatcher("m", max_batch_size=8, max_queue_delay_s=0.0, clock=clock)
    expired = request(0, deadline=1.0)
    alive = request(1, deadline=100.0)
    batcher.put(expired)
    batcher.put(alive)
    batch = batcher.collect()
    assert [r.request_id for r in batch.requests] == [1]
    assert batcher.stats.deadline_drops == 1
    assert expired.state is RequestState.SHED
    with pytest.raises(DeadlineExceededError):
        expired.result(timeout=0)


def test_close_returns_leftovers_and_stops_collect():
    batcher = MicroBatcher("m", max_batch_size=8, max_queue_delay_s=0.0)
    batcher.put(request(0))
    leftovers = batcher.close()
    assert [r.request_id for r in leftovers] == [0]
    assert batcher.collect() is None
    assert batcher.closed


def test_mean_batch_rows():
    batcher = MicroBatcher("m", max_batch_size=8, max_queue_delay_s=0.0)
    assert batcher.stats.mean_batch_rows == 0.0
    batcher.put(request(0, rows=2))
    batcher.collect()
    batcher.put(request(1, rows=4))
    batcher.collect()
    assert batcher.stats.mean_batch_rows == pytest.approx(3.0)
    assert batcher.stats.largest_batch_rows == 4


def test_deadline_count_tracks_the_queue():
    clock = FakeClock(now=0.0)
    batcher = MicroBatcher("m", max_batch_size=2, max_queue_delay_s=0.0, clock=clock)
    batcher.put(request(0))
    batcher.put(request(1, deadline=10.0))
    batcher.put(request(2, deadline=1.0))
    assert batcher._deadlined == 2
    clock.now = 5.0
    batch = batcher.collect(block=False)  # sheds 2, takes 0 and 1
    assert [r.request_id for r in batch.requests] == [0, 1]
    assert batcher._deadlined == 0
    assert batcher.stats.deadline_drops == 1
    batcher.put(request(3, deadline=10.0))
    batcher.close()
    assert batcher._deadlined == 0


class ScanEveryCollect(MicroBatcher):
    """The reference: walks the whole queue on every expiry check."""

    def _shed_expired_locked(self) -> None:
        now = self._clock()
        for expired in [r for r in self._pending if r.expired(now)]:
            self._pending.remove(expired)
            self._queued_rows -= expired.rows
            self.stats.deadline_drops += 1
            expired._fail(DeadlineExceededError("expired"), RequestState.SHED)


def _fake_waits(batcher: MicroBatcher, clock: FakeClock) -> None:
    # A condition wait just lets fake time pass (single-threaded test).
    def wait(timeout=None):
        clock.now += timeout

    batcher._cond.wait = wait  # type: ignore[method-assign]


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(1, 3),
            st.sampled_from([None, 0.0, 0.5, 1.0, 2.0, 5.0]),
            st.booleans(),
        ),
        st.tuples(st.just("tick"), st.sampled_from([0.0, 0.25, 1.0, 3.0])),
        st.tuples(st.just("collect")),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, delay=st.sampled_from([0.0, 0.002, 0.5]), max_rows=st.integers(1, 6))
def test_counted_deadline_scan_matches_full_scan(ops, delay, max_rows):
    clocks = (FakeClock(), FakeClock())
    fast = MicroBatcher("m", max_rows, delay, clock=clocks[0])
    ref = ScanEveryCollect("m", max_rows, delay, clock=clocks[1])
    pairs = list(zip((fast, ref), clocks))
    for batcher, clock in pairs:
        _fake_waits(batcher, clock)
    sent: list[tuple[RequestFuture, RequestFuture]] = []

    def pending_deadlines(batcher):
        return sum(r.deadline is not None for r in batcher._pending)

    def shed_ids(side):
        return {pair[side].request_id for pair in sent if pair[side].shed()}

    def collect_both():
        got = [b.collect(block=False) for b in (fast, ref)]
        ids = [
            None if batch is None else [r.request_id for r in batch.requests]
            for batch in got
        ]
        assert ids[0] == ids[1]
        return got[0]

    for op in ops:
        if op[0] == "put":
            __, rows, slack, front = op
            twins = []
            for batcher, clock in pairs:
                deadline = None if slack is None else clock.now + slack
                future = RequestFuture(
                    len(sent), "m", np.zeros((rows, 4)), deadline,
                    enqueued_at=clock.now,
                )
                batcher.put(future, front=front)
                twins.append(future)
            sent.append(tuple(twins))
        elif op[0] == "tick":
            for clock in clocks:
                clock.now += op[1]
        else:
            collect_both()
        assert clocks[0].now == clocks[1].now
        assert shed_ids(0) == shed_ids(1)
        assert fast._deadlined == pending_deadlines(fast)
        assert fast.queued_rows == ref.queued_rows
    while collect_both() is not None:
        pass
    assert shed_ids(0) == shed_ids(1)
    assert fast.stats == ref.stats
    assert fast._deadlined == 0
    fast.put(RequestFuture(-1, "m", np.zeros((1, 4)), 1e9, enqueued_at=0.0))
    assert fast._deadlined == 1
    fast.close()
    assert fast._deadlined == 0
