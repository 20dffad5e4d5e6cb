"""Load generation: one generator thread, one collector thread.

The host has two cores, so there are never more client threads than that.
The generator only sleeps while it waits (a spinning Python thread would
keep the interpreter lock from the server's workers).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Samples:
    """What one phase measured.  ``latency_s`` holds successful ops only;
    a failed op is counted in ``failed`` and misses any latency limit."""

    latency_s: np.ndarray
    attempted: int
    failed: int
    wall_s: float
    submit_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    late_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    futures: list = field(default_factory=list)
    backlog_mid: int = 0
    backlog_end: int = 0
    first_error: str = ""


def closed_loop(op, verify, seconds: float, min_ops: int, rec=None) -> Samples:
    """One client: the next op starts when the previous one returns.

    Only ``op(i)`` is timed; ``verify(i, result)`` checks the answer outside
    the timed region.  An op that raises or answers wrongly is a failure.
    """
    latencies, failed, first_error, i = [], 0, "", 0
    begin = time.perf_counter()
    while i < min_ops or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        try:
            result = op(i)
        except Exception as exc:  # a failed op is a measurement, not a crash
            end = time.perf_counter()
            ok, first_error = False, first_error or repr(exc)
        else:
            end = time.perf_counter()
            ok = verify(i, result)
            if not ok:
                first_error = first_error or f"wrong answer on op {i}"
        if rec is not None:
            rec.add("op", start, end, op_id=i)
        if ok:
            latencies.append(end - start)
        else:
            failed += 1
        i += 1
    return Samples(np.array(latencies), i, failed, time.perf_counter() - begin,
                   first_error=first_error)


def open_loop(submit, due, verify, rec=None, timeout: float = 60.0) -> Samples:
    """Send request ``i`` at ``due[i]`` whether or not earlier ones are done.

    ``submit(i)`` returns a future (``.result(timeout)``); the collector
    waits on futures in submission order, stamps completion and checks the
    answer with ``verify(i, labels)``.  Latency runs from the *due* time, so
    a stall is charged to every request it delayed.
    """
    n = len(due)
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    submit_s = np.zeros(n)
    correct = np.zeros(n, dtype=bool)
    futures: list = [None] * n
    errors: list[str] = []
    handoff: queue.SimpleQueue = queue.SimpleQueue()

    def collect() -> None:
        while (item := handoff.get()) is not None:
            i, future = item
            try:
                labels = future.result(timeout)
            except Exception as exc:  # raised, shed, or timed out: failed
                errors.append(repr(exc))
                continue
            done[i] = time.perf_counter()
            correct[i] = verify(i, labels)

    collector = threading.Thread(target=collect, name="bench-collector")
    collector.start()
    begin = time.perf_counter()
    try:
        for i in range(n):
            delay = due[i] - (time.perf_counter() - begin)
            if delay > 0:
                time.sleep(delay)
            start = time.perf_counter()
            try:
                future = submit(i)
            except Exception as exc:  # refused at admission: failed
                errors.append(repr(exc))
                future = None
            end = time.perf_counter()
            sent[i], submit_s[i] = start - begin, end - start
            if future is not None:
                futures[i] = future
                handoff.put((i, future))
    finally:
        handoff.put(None)
        collector.join()
    wall = time.perf_counter() - begin
    done -= begin
    ok = correct & ~np.isnan(done)
    if rec is not None:
        for i in np.flatnonzero(ok):
            _record_request(rec, int(i), begin, due[i], sent[i], submit_s[i],
                            done[i], futures[i])

    def backlog(at: float) -> int:
        return int((sent <= at).sum() - (done <= at).sum())

    last = float(sent[-1]) if n else 0.0
    return Samples(
        latency_s=(done - due)[ok], attempted=n, failed=int(n - ok.sum()),
        wall_s=wall, submit_s=submit_s, late_s=sent - due,
        futures=[f for f, good in zip(futures, ok) if good],
        backlog_mid=backlog(last / 2), backlog_end=backlog(last),
        first_error=errors[0] if errors else ("" if ok.all() else "wrong answer"),
    )


def _record_request(rec, i, begin, due, sent, submit_s, done, future) -> None:
    """request [due, done] -> submit, queue wait, batch execute."""
    parent = rec.add("request", begin + due, begin + done, op_id=i)
    start = begin + sent
    rec.add("server.submit", start, start + submit_s, parent, i)
    queue_s, execute_s = future.queue_seconds, future.execute_seconds
    if queue_s is not None and execute_s is not None:
        rec.add("server.queue", start, start + queue_s, parent, i)
        rec.add("server.execute", start + queue_s, start + queue_s + execute_s,
                parent, i)


def burst(submit, n: int, verify, timeout: float = 120.0) -> Samples:
    """Submit ``n`` requests at once, then wait for all of them."""
    return open_loop(submit, np.zeros(n), verify, timeout=timeout)
