"""Per-model service-level objectives and burn-rate evaluation.

An SLO here is declarative: "p(request bad) stays under ``error_budget``",
where a request is *bad* when it failed outright or finished slower than
``latency_ms``.  The tracker keeps, per model, one sliding window of
timestamped good/bad outcomes (fed from the serving layer) per evaluation
window, each with a running bad count, and evaluates the classic
multi-window burn rate over them:

    burn = (bad fraction in window) / error_budget

A burn rate of 1.0 consumes the budget exactly as fast as allowed; above
the configured threshold the objective is *burning*.  Two windows are
evaluated — a **fast** one (default 1 minute) that reacts to acute
incidents within seconds of them starting, and a **slow** one (default
1 hour) that confirms sustained burns and suppresses one-off blips.  The
combination maps onto health states: fast burning alone is ``DEGRADED``
(page-soon), fast *and* slow burning is ``FAILING`` (page-now).

Transitions are observable three ways: ``slo.burn_start`` /
``slo.burn_stop`` flight-recorder events, ``slo_burn_rate`` gauges per
model and window, and the ``SHOW SLO`` cursor rendered from
:meth:`SloTracker.rows`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from ..errors import TelemetryError
from ..relational.schema import ColumnType, Schema
from .registry import MetricsRegistry

#: The ``slo`` system relation (``SHOW SLO``): one row per (model, window).
SLO_SCHEMA = Schema.of(
    ("model", ColumnType.TEXT),
    ("objective", ColumnType.TEXT),
    ("target", ColumnType.DOUBLE),
    ("window", ColumnType.TEXT),
    ("samples", ColumnType.INT),
    ("bad", ColumnType.INT),
    ("burn_rate", ColumnType.DOUBLE),
    ("status", ColumnType.TEXT),
)
SLO_COLUMNS = SLO_SCHEMA.names


@dataclass(frozen=True)
class SloPolicy:
    """One model's declared objective.

    ``latency_ms`` of 0 disables the latency component (only outright
    failures count as bad); ``error_budget`` is the tolerated bad
    fraction (0.01 = 99% of requests good).
    """

    model: str
    latency_ms: float = 0.0
    error_budget: float = 0.01

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise TelemetryError("slo latency_ms must be >= 0")
        if not 0 < self.error_budget <= 1:
            raise TelemetryError("slo error_budget must be in (0, 1]")


class _Window:
    """One sliding window's samples plus a running bad count.

    ``samples`` holds the (timestamp, bad) pairs still inside the window,
    oldest first, bounded by ``max_samples`` so a hot model cannot grow
    memory between sweeps; a sample leaves once, by age or by the bound,
    and takes its share of ``bad`` with it.
    """

    __slots__ = ("name", "span_s", "samples", "bad", "burning")

    def __init__(self, name: str, span_s: float, max_samples: int):
        self.name = name
        self.span_s = span_s
        self.samples: deque[tuple[float, bool]] = deque(maxlen=max_samples)
        self.bad = 0
        self.burning = False

    def add(self, now: float, bad: bool) -> None:
        samples = self.samples
        if len(samples) == samples.maxlen:
            self.bad -= samples[0][1]  # append evicts the oldest
        samples.append((now, bad))
        self.bad += bad

    def age(self, now: float) -> None:
        cutoff = now - self.span_s
        samples = self.samples
        while samples and samples[0][0] < cutoff:
            self.bad -= samples.popleft()[1]


class _ModelState:
    __slots__ = ("policy", "windows")

    def __init__(self, policy: SloPolicy, windows: tuple[_Window, ...]):
        self.policy = policy
        self.windows = windows


class SloTracker:
    """Sliding-window burn-rate evaluation over per-model outcomes.

    ``observe`` is called once per failed serving request and
    ``observe_many`` once per served batch.  Each window keeps its
    samples and a running bad count: a new sample is one append per
    window, and evaluation first drops the samples that aged out, so the
    serving hot path pays O(1 + evicted samples) per request under the
    tracker's lock, never a walk over the window.
    """

    enabled = True

    def __init__(
        self,
        fast_window_s: float = 60.0,
        slow_window_s: float = 3600.0,
        min_samples: int = 8,
        burn_threshold: float = 1.0,
        max_samples: int = 4096,
        default_latency_ms: float = 0.0,
        default_error_budget: float = 0.01,
        metrics=None,
        recorder=None,
        clock=time.monotonic,
    ):
        if fast_window_s <= 0 or slow_window_s <= 0:
            raise TelemetryError("slo windows must be positive")
        if slow_window_s < fast_window_s:
            raise TelemetryError(
                "slo slow window must be at least as long as the fast window"
            )
        if min_samples < 1:
            raise TelemetryError("slo min_samples must be >= 1")
        if burn_threshold <= 0:
            raise TelemetryError("slo burn_threshold must be positive")
        self.fast_window_s = fast_window_s
        self.slow_window_s = slow_window_s
        self.min_samples = min_samples
        self.burn_threshold = burn_threshold
        self.max_samples = max_samples
        self.default_latency_ms = default_latency_ms
        self.default_error_budget = default_error_budget
        self._clock = clock
        self._models: dict[str, _ModelState] = {}
        self._lock = threading.Lock()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._recorder = recorder
        self._gauges: dict[tuple[str, str], object] = {}

    def _new_state(self, policy: SloPolicy) -> _ModelState:
        return _ModelState(
            policy,
            (
                _Window("fast", self.fast_window_s, self.max_samples),
                _Window("slow", self.slow_window_s, self.max_samples),
            ),
        )

    # -- policy management ----------------------------------------------

    def set_policy(
        self,
        model: str,
        latency_ms: float = 0.0,
        error_budget: float = 0.01,
    ) -> SloPolicy:
        """Declare (or replace) one model's objective; samples persist."""
        policy = SloPolicy(model, latency_ms, error_budget)
        with self._lock:
            state = self._models.get(model)
            if state is None:
                self._models[model] = self._new_state(policy)
            else:
                state.policy = policy
        return policy

    def policies(self) -> list[SloPolicy]:
        with self._lock:
            return [state.policy for state in self._models.values()]

    # -- the hot path ----------------------------------------------------

    def observe(self, model: str, ok: bool, latency_ms: float) -> None:
        """Fold one finished request into the model's window.

        Models without an explicit policy are auto-registered with the
        session defaults, but only when a default latency objective is
        configured — otherwise unconfigured models stay untracked and
        ``SHOW SLO`` stays empty, preserving the opt-in contract.
        """
        self.observe_many(model, (latency_ms,), ok)

    def observe_many(
        self, model: str, latencies_ms: Sequence[float], ok: bool = True
    ) -> None:
        """Fold several finished requests (one batch) in under one lock.

        Equivalent to one :meth:`observe` per latency at the same
        instant: burn transitions are evaluated after every sample, the
        gauges are set once, to the value after the last.
        """
        if not latencies_ms:
            return
        now = self._clock()
        with self._lock:
            state = self._models.get(model)
            if state is None:
                if self.default_latency_ms <= 0:
                    return
                state = self._new_state(
                    SloPolicy(
                        model, self.default_latency_ms, self.default_error_budget
                    )
                )
                self._models[model] = state
            limit_ms = state.policy.latency_ms
            windows = state.windows
            for window in windows:
                window.age(now)
            for latency_ms in latencies_ms:
                bad = (not ok) or (limit_ms > 0 and latency_ms > limit_ms)
                for window in windows:
                    window.add(now, bad)
                    self._transition_locked(model, state, window)
            for window in windows:
                self._gauge(model, window.name).set(
                    round(self._burn(state, window), 6)
                )

    # -- evaluation ------------------------------------------------------

    def _burn(self, state: _ModelState, window: _Window) -> float:
        total = len(window.samples)
        if total < self.min_samples:
            return 0.0
        return (window.bad / total) / state.policy.error_budget

    def _window_stats(
        self, state: _ModelState, window: _Window, now: float
    ) -> tuple[int, int, float]:
        """(samples, bad, burn rate) for one window ending at ``now``."""
        window.age(now)
        return len(window.samples), window.bad, self._burn(state, window)

    def _gauge(self, model: str, window: str):
        key = (model, window)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._metrics.gauge(
                "slo_burn_rate",
                "Error-budget burn rate (1.0 = spending exactly on budget)",
                model=model,
                window=window,
            )
            self._gauges[key] = gauge
        return gauge

    def _transition_locked(
        self, model: str, state: _ModelState, window: _Window
    ) -> None:
        burn = self._burn(state, window)
        burning = burn >= self.burn_threshold
        if burning == window.burning:
            return
        window.burning = burning
        if self._recorder is not None:
            self._recorder.emit(
                "slo.burn_start" if burning else "slo.burn_stop",
                model=model,
                window=window.name,
                burn_rate=round(burn, 4),
                samples=len(window.samples),
                bad=window.bad,
                threshold=self.burn_threshold,
            )

    # -- rendering -------------------------------------------------------

    def rows(self) -> list[tuple]:
        """``SHOW SLO`` rows (:data:`SLO_COLUMNS`): two per tracked model."""
        now = self._clock()
        out: list[tuple] = []
        with self._lock:
            for model in sorted(self._models):
                state = self._models[model]
                policy = state.policy
                objective = (
                    f"latency<={policy.latency_ms:g}ms"
                    if policy.latency_ms > 0
                    else "errors"
                )
                target = round(1.0 - policy.error_budget, 6)
                for window in state.windows:
                    total, bad, burn = self._window_stats(state, window, now)
                    burning = burn >= self.burn_threshold
                    out.append(
                        (
                            model,
                            objective,
                            target,
                            f"{window.name}:{window.span_s:g}s",
                            total,
                            bad,
                            round(burn, 4),
                            "burning" if burning else "ok",
                        )
                    )
        return out

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Per-model burn state for :func:`repro.health.collect`."""
        now = self._clock()
        out: dict[str, dict[str, object]] = {}
        with self._lock:
            for model, state in self._models.items():
                fast, slow = state.windows
                f_total, f_bad, f_burn = self._window_stats(state, fast, now)
                s_total, s_bad, s_burn = self._window_stats(state, slow, now)
                out[model] = {
                    "latency_ms": state.policy.latency_ms,
                    "error_budget": state.policy.error_budget,
                    "fast_burn": round(f_burn, 4),
                    "slow_burn": round(s_burn, 4),
                    "fast_samples": f_total,
                    "slow_samples": s_total,
                    "fast_bad": f_bad,
                    "slow_bad": s_bad,
                    "burning_fast": f_burn >= self.burn_threshold,
                    "burning_slow": s_burn >= self.burn_threshold,
                }
        return out

    def clear(self) -> None:
        with self._lock:
            self._models.clear()


class NullSloTracker:
    """No-op tracker for disabled telemetry."""

    enabled = False

    def set_policy(
        self, model: str, latency_ms: float = 0.0, error_budget: float = 0.01
    ) -> None:
        return None

    def policies(self) -> list[SloPolicy]:
        return []

    def observe(self, model: str, ok: bool, latency_ms: float) -> None:
        pass

    def observe_many(
        self, model: str, latencies_ms: Sequence[float], ok: bool = True
    ) -> None:
        pass

    def rows(self) -> list[tuple]:
        return []

    def snapshot(self) -> dict[str, dict[str, object]]:
        return {}

    def clear(self) -> None:
        pass


#: Shared no-op tracker for disabled telemetry.
NULL_SLO = NullSloTracker()
