"""Per-model service-level objectives and burn-rate evaluation.

An SLO here is declarative: "p(request bad) stays under ``error_budget``",
where a request is *bad* when it failed outright or finished slower than
``latency_ms``.  The tracker keeps one sliding sample window per model
(timestamped good/bad outcomes fed from the serving layer) and evaluates
the classic multi-window burn rate over it:

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
from dataclasses import dataclass

from ..errors import TelemetryError
from ..relational.schema import ColumnType, Schema

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


class _ModelState:
    __slots__ = ("policy", "samples", "burning_fast", "burning_slow")

    def __init__(self, policy: SloPolicy, max_samples: int):
        self.policy = policy
        # (timestamp, bad) pairs, oldest first; bounded so a hot model
        # cannot grow memory without bound between window sweeps.
        self.samples: deque[tuple[float, bool]] = deque(maxlen=max_samples)
        self.burning_fast = False
        self.burning_slow = False


class SloTracker:
    """Sliding-window burn-rate evaluation over per-model outcomes.

    ``observe`` is called once per finished serving request; evaluation
    is incremental and O(evicted samples), so the serving hot path pays a
    deque append, a window trim, and two divisions.
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
        self._metrics = metrics
        self._recorder = recorder
        self._gauges: dict[tuple[str, str], object] = {}

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
                self._models[model] = _ModelState(policy, self.max_samples)
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
        now = self._clock()
        with self._lock:
            state = self._models.get(model)
            if state is None:
                if self.default_latency_ms <= 0:
                    return
                state = _ModelState(
                    SloPolicy(
                        model, self.default_latency_ms, self.default_error_budget
                    ),
                    self.max_samples,
                )
                self._models[model] = state
            policy = state.policy
            bad = (not ok) or (
                policy.latency_ms > 0 and latency_ms > policy.latency_ms
            )
            state.samples.append((now, bad))
            self._evaluate_locked(model, state, now)

    # -- evaluation ------------------------------------------------------

    def _window_stats(
        self, state: _ModelState, now: float, window_s: float
    ) -> tuple[int, int, float]:
        """(samples, bad, burn rate) for one window ending at ``now``."""
        cutoff = now - window_s
        total = 0
        bad = 0
        for ts, was_bad in reversed(state.samples):
            if ts < cutoff:
                break
            total += 1
            if was_bad:
                bad += 1
        if total < self.min_samples:
            return total, bad, 0.0
        return total, bad, (bad / total) / state.policy.error_budget

    def _gauge(self, model: str, window: str):
        key = (model, window)
        gauge = self._gauges.get(key)
        if gauge is None and self._metrics is not None:
            gauge = self._metrics.gauge(
                "slo_burn_rate",
                "Error-budget burn rate (1.0 = spending exactly on budget)",
                model=model,
                window=window,
            )
            self._gauges[key] = gauge
        return gauge

    def _evaluate_locked(self, model: str, state: _ModelState, now: float) -> None:
        for window, window_s, attr in (
            ("fast", self.fast_window_s, "burning_fast"),
            ("slow", self.slow_window_s, "burning_slow"),
        ):
            total, bad, burn = self._window_stats(state, now, window_s)
            gauge = self._gauge(model, window)
            if gauge is not None:
                gauge.set(round(burn, 6))
            burning = burn >= self.burn_threshold
            was_burning = getattr(state, attr)
            if burning == was_burning:
                continue
            setattr(state, attr, burning)
            if self._recorder is not None:
                self._recorder.emit(
                    "slo.burn_start" if burning else "slo.burn_stop",
                    model=model,
                    window=window,
                    burn_rate=round(burn, 4),
                    samples=total,
                    bad=bad,
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
                for window, window_s in (
                    ("fast", self.fast_window_s),
                    ("slow", self.slow_window_s),
                ):
                    total, bad, burn = self._window_stats(state, now, window_s)
                    burning = burn >= self.burn_threshold
                    out.append(
                        (
                            model,
                            objective,
                            target,
                            f"{window}:{window_s:g}s",
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
                f_total, f_bad, f_burn = self._window_stats(
                    state, now, self.fast_window_s
                )
                s_total, s_bad, s_burn = self._window_stats(
                    state, now, self.slow_window_s
                )
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

    def rows(self) -> list[tuple]:
        return []

    def snapshot(self) -> dict[str, dict[str, object]]:
        return {}

    def clear(self) -> None:
        pass


#: Shared no-op tracker for disabled telemetry.
NULL_SLO = NullSloTracker()
