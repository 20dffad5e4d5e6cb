"""The benchmark's own in-memory span recorder (no use of repro.telemetry).

A span is ``(id, name, start, end, parent, op_id, thread)`` with times in
``time.perf_counter()`` seconds.  Spans are kept in memory and written out
when the run ends; a span's self time is its duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()

    def add(self, name, start, end, parent=None, op_id=None) -> int:
        sid = next(self._ids)
        self.spans.append(
            (sid, name, start, end, parent, op_id, threading.current_thread().name)
        )
        return sid

    @contextmanager
    def span(self, name, parent=None, op_id=None):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), parent, op_id)


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children's
    intervals, each clipped to the parent (children may overlap)."""
    children = defaultdict(list)
    for sid, __, start, end, parent, *__rest in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, __, start, end, *__rest in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children[sid]):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def self_time_by_name(spans) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for sid, name, *__rest in spans:
        totals[name] += own[sid]
    return dict(totals)


def chrome_trace(spans, pid: str = "bench") -> list[dict]:
    """Complete ("X") events for chrome://tracing / ui.perfetto.dev."""
    if not spans:
        return []
    zero = min(s[2] for s in spans)
    return [
        {
            "name": name, "ph": "X", "pid": pid, "tid": thread,
            "ts": (start - zero) * 1e6, "dur": (end - start) * 1e6,
            "args": {"id": sid, "parent": parent, "op_id": op_id},
        }
        for sid, name, start, end, parent, op_id, thread in spans
    ]
