"""Deterministic circuit breakers (closed / open / half-open).

The classic pattern, tuned for replayability:

* **closed** — outcomes land in a sliding window of the most recent
  ``window`` requests.  Once the window holds ``min_samples`` outcomes
  and its failure rate reaches ``failure_threshold``, the breaker opens.
* **open** — every request is rejected without execution
  (:class:`~repro.errors.CircuitOpenError` at the call site).  Cooldown
  is *request-count based*, not wall-clock based: after
  ``cooldown_requests`` rejections the breaker moves to half-open, so a
  scenario replays identically regardless of machine speed.
* **half-open** — arrivals become the single in-flight *probe* with
  ``probe_probability``, drawn from the breaker's own seeded RNG
  (CRC32 of the breaker name mixed with the seed, same recipe as
  :mod:`repro.faults` — stable across processes).  A successful probe
  closes the breaker and clears the window; a failed probe re-opens it.

Everything is guarded by one lock per breaker; the serving front-end's
submit path and its workers record from different threads.
"""

from __future__ import annotations

import random
import threading
import zlib
from collections import deque

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Column names for breaker rows in SHOW HEALTH / SHOW SERVER surfaces.
BREAKER_COLUMNS: tuple[str, ...] = (
    "breaker",
    "state",
    "failure_rate",
    "window",
    "opened_total",
)


class CircuitBreaker:
    """One breaker: a named failure-rate gate over recent outcomes."""

    def __init__(
        self,
        name: str,
        window: int = 8,
        failure_threshold: float = 0.5,
        min_samples: int = 4,
        cooldown_requests: int = 4,
        probe_probability: float = 1.0,
        seed: int = 0,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if not 1 <= min_samples <= window:
            raise ValueError("min_samples must be in [1, window]")
        if cooldown_requests < 1:
            raise ValueError("cooldown_requests must be >= 1")
        if not 0.0 < probe_probability <= 1.0:
            raise ValueError("probe_probability must be in (0, 1]")
        self.name = name
        self.window = window
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.cooldown_requests = cooldown_requests
        self.probe_probability = probe_probability
        self._rng = random.Random(
            (int(seed) * 1_000_003) ^ zlib.crc32(name.encode("utf-8"))
        )
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: deque[bool] = deque(maxlen=window)  # True = failure
        self._rejections = 0  # rejections since opening
        self._probe_inflight = False
        self.opened_total = 0
        self.rejected_total = 0
        #: Optional flight recorder; state transitions are emitted as
        #: ``breaker.open`` / ``breaker.half_open`` / ``breaker.closed``.
        self.recorder = None

    def _emit(self, kind: str, **fields: object) -> None:
        if self.recorder is not None:
            self.recorder.emit(kind, breaker=self.name, **fields)

    # -- introspection ---------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def failure_rate(self) -> float:
        with self._lock:
            if not self._outcomes:
                return 0.0
            return sum(self._outcomes) / len(self._outcomes)

    def as_row(self) -> tuple:
        with self._lock:
            rate = (
                sum(self._outcomes) / len(self._outcomes)
                if self._outcomes
                else 0.0
            )
            return (
                self.name,
                self._state,
                round(rate, 4),
                len(self._outcomes),
                self.opened_total,
            )

    # -- the gate --------------------------------------------------------

    def allow(self) -> tuple[bool, str]:
        """Gate one request; returns (allowed, state at decision time).

        In the open state the call *is* the cooldown clock: each
        rejection counts toward the request-based cooldown, and the
        request that lands past it becomes eligible as the half-open
        probe.
        """
        with self._lock:
            if self._state == CLOSED:
                return True, CLOSED
            if self._state == OPEN:
                self._rejections += 1
                if self._rejections > self.cooldown_requests:
                    self._state = HALF_OPEN
                    self._probe_inflight = False
                    self._emit("breaker.half_open", rejections=self._rejections)
                else:
                    self.rejected_total += 1
                    return False, OPEN
            # half-open: at most one probe in flight; arrivals become the
            # probe by a seeded draw so the choice replays deterministically.
            if self._probe_inflight:
                self.rejected_total += 1
                return False, HALF_OPEN
            if self._rng.random() < self.probe_probability:
                self._probe_inflight = True
                return True, HALF_OPEN
            self.rejected_total += 1
            return False, HALF_OPEN

    # -- outcome feedback ------------------------------------------------

    def abandon_probe(self) -> None:
        """Release a granted probe that never executed (e.g. the probe
        request was rejected or shed downstream of the breaker), so a
        later arrival can become the probe instead."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_inflight = False

    def record_success(self, n: int = 1) -> None:
        """Record ``n`` successes (one served batch) under one lock."""
        with self._lock:
            if self._state == HALF_OPEN:
                # The probe came back healthy: close and start fresh.
                self._state = CLOSED
                self._probe_inflight = False
                self._outcomes.clear()
                self._emit("breaker.closed", probe="success")
                n -= 1
            self._outcomes.extend([False] * min(n, self.window))

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._state = OPEN
                self._probe_inflight = False
                self._rejections = 0
                self.opened_total += 1
                self._emit("breaker.open", probe="failure")
                return
            self._outcomes.append(True)
            if self._state == CLOSED and len(self._outcomes) >= self.min_samples:
                rate = sum(self._outcomes) / len(self._outcomes)
                if rate >= self.failure_threshold:
                    self._state = OPEN
                    self._rejections = 0
                    self.opened_total += 1
                    self._emit("breaker.open", failure_rate=round(rate, 4))


class BreakerBoard:
    """A named registry of breakers sharing one configuration.

    ``breaker_options`` are :class:`CircuitBreaker` keyword arguments,
    applied to every breaker the board creates.
    """

    def __init__(self, **breaker_options: object):
        self._kwargs = breaker_options
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Optional flight recorder propagated to breakers at creation.
        self.recorder = None

    @classmethod
    def from_config(cls, config, seed: int | None = None) -> "BreakerBoard":
        """A board configured from ``breaker_*`` SystemConfig knobs."""
        return cls(
            window=config.breaker_window,
            min_samples=config.breaker_min_samples,
            cooldown_requests=config.breaker_cooldown_requests,
            seed=seed if seed is not None else (config.faults_seed or config.seed),
        )

    def get(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(name, **self._kwargs)
                breaker.recorder = self.recorder
                self._breakers[name] = breaker
            return breaker

    def peek(self, name: str) -> CircuitBreaker | None:
        """The breaker if it exists; never creates one."""
        with self._lock:
            return self._breakers.get(name)

    def __iter__(self):
        with self._lock:
            return iter(sorted(self._breakers.values(), key=lambda b: b.name))

    def __len__(self) -> int:
        return len(self._breakers)

    def rows(self) -> list[tuple]:
        """One :data:`BREAKER_COLUMNS` row per breaker, sorted by name."""
        return [breaker.as_row() for breaker in self]

    def worst_state(self) -> str:
        """closed < half-open < open across every breaker on the board."""
        rank = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}
        worst = CLOSED
        for breaker in self:
            if rank[breaker.state] > rank[worst]:
                worst = breaker.state
        return worst
