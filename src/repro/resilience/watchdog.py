"""Cooperative wall-clock deadlines for plan stages.

A :class:`Deadline` is handed down from the hybrid executor into the
engines, which call :meth:`Deadline.check` at natural safepoints — before
each layer of a fused UDF stage, before each stripe of a relation-centric
stage, before dispatching a DL-centric offload.  An overrun raises
:class:`~repro.errors.StageTimeoutError` *from the worker's own thread*;
nothing is ever killed from outside, so budgets and locks unwind through
the ordinary ``try/finally`` paths and the executor's recovery machinery
can retry the stage re-lowered.
"""

from __future__ import annotations

import time

from ..errors import StageTimeoutError


class Deadline:
    """A start-anchored wall-clock budget with an explicit check point."""

    __slots__ = ("label", "limit_seconds", "_start", "_clock")

    def __init__(self, limit_seconds: float, label: str = "stage", clock=time.monotonic):
        self.label = label
        self.limit_seconds = float(limit_seconds)
        self._clock = clock
        self._start = clock()

    @classmethod
    def for_stage(cls, config, label: str) -> "Deadline | None":
        """A deadline from ``resilience_stage_timeout_ms`` (None when 0)."""
        timeout_ms = config.resilience_stage_timeout_ms
        if not timeout_ms:
            return None
        return cls(timeout_ms / 1e3, label=label)

    @property
    def elapsed(self) -> float:
        return self._clock() - self._start

    @property
    def remaining(self) -> float:
        return self.limit_seconds - self.elapsed

    @property
    def expired(self) -> bool:
        return self.remaining < 0

    def check(self) -> None:
        """Raise :class:`StageTimeoutError` once the budget is spent."""
        elapsed = self.elapsed
        if elapsed > self.limit_seconds:
            raise StageTimeoutError(self.label, elapsed, self.limit_seconds)

    def checkpoint(self):
        """The bound check as a callable, for APIs taking a hook."""
        return self.check
