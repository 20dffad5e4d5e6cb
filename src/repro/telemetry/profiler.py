"""Sampling stage profiler: where does plan time actually go?

Instead of instrumenting every stage with timers (which the tracer
already does, at per-call cost), the profiler answers the aggregate
question — *which plan stages dominate wall time across the whole
workload* — by statistical sampling: the engine marks the stage each
worker thread is currently executing (:meth:`StageProfiler.enter` /
:meth:`StageProfiler.exit`, a plain dict store/delete), and a background
daemon thread wakes every ``interval_ms`` and attributes one sample to
every marked frame.  Sampling cost is therefore independent of query
rate, and when the sampler is stopped the hot-path hooks reduce to a
single attribute check.

Frames are ``"<model>;stage<i>:<representation>"`` — already one level of
a collapsed call stack — so :meth:`collapsed` / :meth:`export` emit the
folded-stack format consumed by ``flamegraph.pl`` and speedscope
("semicolon-joined frames, space, count" per line) with a ``repro`` root
frame prepended.
"""

from __future__ import annotations

import threading

from ..errors import TelemetryError
from ..relational.schema import ColumnType, Schema
from .registry import MetricsRegistry

#: The ``profile`` system relation (``SHOW PROFILE``).
PROFILE_SCHEMA = Schema.of(
    ("frame", ColumnType.TEXT),
    ("samples", ColumnType.INT),
    ("est_ms", ColumnType.DOUBLE),
    ("share", ColumnType.DOUBLE),
)
PROFILE_COLUMNS = PROFILE_SCHEMA.names

#: Catch-all frame once ``max_frames`` distinct stages are tracked.
OVERFLOW_FRAME = "<other>"

#: Root frame prepended to every collapsed stack line.
ROOT_FRAME = "repro"


class StageProfiler:
    """Wall-clock sampler attributing time to executing plan stages.

    Thread-safe; one instance per :class:`~repro.session.Database`.  The
    sampler thread is started explicitly (``Database.start_profiler()``
    or the ``profiler_enabled`` config knob) and the enter/exit hooks are
    near-free while it is stopped — the engine only pays the dict writes
    when someone is actually profiling.
    """

    enabled = True

    def __init__(
        self,
        interval_ms: float = 5.0,
        max_frames: int = 256,
        metrics=None,
    ):
        if interval_ms <= 0:
            raise TelemetryError("profiler interval_ms must be positive")
        if max_frames < 1:
            raise TelemetryError("profiler max_frames must be >= 1")
        self.interval_s = interval_ms / 1e3
        self.interval_ms = interval_ms
        self.max_frames = max_frames
        self.running = False
        self._active: dict[int, str] = {}  # thread id -> current frame
        self._counts: dict[str, int] = {}
        self._ticks = 0  # sampler wakeups
        self._sampled = 0  # samples attributed to frames
        self._idle_ticks = 0  # wakeups with no stage executing anywhere
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        registry = metrics if metrics is not None else MetricsRegistry()
        self._m_samples = registry.counter(
            "profiler_samples_total", "Stage samples attributed"
        )
        self._m_running = registry.gauge(
            "profiler_running", "1 while the sampling profiler is active"
        )

    # -- hot-path hooks (called by the engine around every stage) --------

    def enter(self, frame: str) -> None:
        if not self.running:
            return
        self._active[threading.get_ident()] = frame

    def exit(self) -> None:
        if not self.running:
            return
        self._active.pop(threading.get_ident(), None)

    # -- sampler lifecycle -----------------------------------------------

    def start(self) -> bool:
        """Start the background sampler; False if already running."""
        with self._lock:
            if self.running:
                return False
            self._stop_event.clear()
            self.running = True
            self._thread = threading.Thread(
                target=self._sample_loop, name="repro-profiler", daemon=True
            )
            self._thread.start()
        self._m_running.set(1)
        return True

    def stop(self) -> bool:
        """Stop the sampler (accumulated samples are kept); False if idle."""
        with self._lock:
            if not self.running:
                return False
            self.running = False
            self._stop_event.set()
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join(timeout=2.0)
        self._active.clear()
        self._m_running.set(0)
        return True

    def _sample_loop(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            frames = list(self._active.values())
            with self._lock:
                self._ticks += 1
                if not frames:
                    self._idle_ticks += 1
                    continue
                for frame in frames:
                    if (
                        frame not in self._counts
                        and len(self._counts) >= self.max_frames
                    ):
                        frame = OVERFLOW_FRAME
                    self._counts[frame] = self._counts.get(frame, 0) + 1
                    self._sampled += 1
            self._m_samples.inc(len(frames))

    # -- results ---------------------------------------------------------

    @property
    def ticks(self) -> int:
        return self._ticks

    @property
    def sampled(self) -> int:
        return self._sampled

    @property
    def idle_ticks(self) -> int:
        return self._idle_ticks

    def top_rows(self, top: int | None = None) -> list[tuple]:
        """``SHOW PROFILE`` rows (:data:`PROFILE_COLUMNS`), hottest first.

        ``est_ms`` scales sample counts by the sampling interval — an
        unbiased wall-time estimate whose error shrinks with sample
        count; ``share`` is the frame's fraction of all attributed
        samples.
        """
        with self._lock:
            counts = dict(self._counts)
            sampled = self._sampled
        rows = [
            (
                frame,
                count,
                round(count * self.interval_ms, 3),
                round(count / sampled, 4) if sampled else 0.0,
            )
            for frame, count in sorted(
                counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        if top is not None:
            rows = rows[:top]
        return rows

    def collapsed(self) -> list[str]:
        """Folded-stack lines (``root;frame count``) for flamegraph tools."""
        with self._lock:
            counts = dict(self._counts)
        return [
            f"{ROOT_FRAME};{frame} {count}"
            for frame, count in sorted(counts.items())
        ]

    def export(self, path) -> int:
        """Write the collapsed-stack profile to ``path``; returns lines."""
        lines = self.collapsed()
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        return len(lines)

    def clear(self) -> None:
        """Drop accumulated samples (the sampler keeps running if started)."""
        with self._lock:
            self._counts.clear()
            self._ticks = 0
            self._sampled = 0
            self._idle_ticks = 0


class NullStageProfiler:
    """No-op profiler for disabled telemetry."""

    enabled = False
    running = False
    ticks = 0
    sampled = 0
    idle_ticks = 0
    interval_ms = 0.0

    def enter(self, frame: str) -> None:
        pass

    def exit(self) -> None:
        pass

    def start(self) -> bool:
        return False

    def stop(self) -> bool:
        return False

    def top_rows(self, top: int | None = None) -> list[tuple]:
        return []

    def collapsed(self) -> list[str]:
        return []

    def export(self, path) -> int:
        return 0

    def clear(self) -> None:
        pass


#: Shared no-op profiler for disabled telemetry.
NULL_PROFILER = NullStageProfiler()
