"""Admission control: bounded queues, backpressure, SLA-aware shedding.

Every ``submit`` passes through :meth:`AdmissionController.decide` before
touching a queue.  Three outcomes:

* **reject** — the model's queue is at capacity.  The caller raises
  :class:`~repro.errors.ServerOverloadedError` synchronously; this is the
  backpressure signal that tells well-behaved clients to slow down.
* **shed** — the request carries a deadline that the current queue
  provably cannot meet: predicted wait (from the model's
  :class:`~repro.serving.policy.ServiceTimeEstimator`) plus predicted
  execution time already exceeds the remaining slack.  The request is
  dropped *before* queuing — its future fails immediately with
  :class:`~repro.errors.DeadlineExceededError` — so doomed work never
  occupies a batch slot.  Shedding only kicks in once the estimator has
  seen enough batches to be trusted.
* **admit** — queued normally, or **fast-pathed** to the queue front when
  the deadline is meetable but too tight to survive waiting behind the
  whole queue.

Cold start: before the estimator has seen ``min_observations`` batches
its predictions cannot be trusted, so feasibility checks are skipped and
the request is admitted with ``cold=True`` (``reason="estimator cold"``)
— a conservative default the server counts under
``server_cold_admissions_total``.  An already-expired deadline is shed
even cold: no estimate is needed to know slack <= 0 is unmeetable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..serving.policy import ServiceTimeEstimator


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict for one submit."""

    action: str  # "admit" | "fastpath" | "reject" | "shed"
    reason: str
    estimated_wait_s: float = 0.0
    estimated_execute_s: float = 0.0
    #: Admitted without a feasibility check because the service-time
    #: estimator had too few observations to be trusted.
    cold: bool = False

    @property
    def admitted(self) -> bool:
        return self.action in ("admit", "fastpath")


class AdmissionController:
    """Per-model queue bounds plus deadline-feasibility shedding."""

    def __init__(
        self,
        queue_capacity: int,
        max_batch_size: int,
        clock=time.monotonic,
    ):
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.queue_capacity = queue_capacity
        self.max_batch_size = max_batch_size
        self._clock = clock

    def decide(
        self,
        estimator: ServiceTimeEstimator,
        queued_requests: int,
        queued_rows: int,
        rows: int,
        deadline: float | None,
    ) -> AdmissionDecision:
        """Admit, fast-path, reject, or shed one incoming request.

        The caller logs the verdict: ``request.admitted`` (with ``action``,
        ``reason`` and ``cold``), ``request.rejected`` or ``request.shed``.
        """
        if queued_requests >= self.queue_capacity:
            return AdmissionDecision(
                action="reject",
                reason=(
                    f"queue full: {queued_requests} requests "
                    f"(capacity {self.queue_capacity})"
                ),
            )
        if deadline is None:
            return AdmissionDecision(action="admit", reason="no deadline check")
        now = self._clock()
        slack = deadline - now
        execute = estimator.estimate_seconds(rows)
        if slack <= 0:
            return AdmissionDecision(
                action="shed",
                reason="deadline already passed at submission",
                estimated_execute_s=execute,
            )
        if not estimator.confident:
            return AdmissionDecision(
                action="admit", reason="estimator cold", cold=True
            )
        wait = estimator.estimate_wait_seconds(queued_rows, self.max_batch_size)
        if execute > slack:
            # Not even an empty queue could save it: shed outright.
            return AdmissionDecision(
                action="shed",
                reason=(
                    f"execution alone needs ~{execute * 1e3:.2f}ms, "
                    f"deadline slack is {slack * 1e3:.2f}ms"
                ),
                estimated_wait_s=wait,
                estimated_execute_s=execute,
            )
        if wait + execute > slack:
            # Meetable without the queue ahead of it: fast-path to the
            # front rather than dropping a request we could still serve.
            return AdmissionDecision(
                action="fastpath",
                reason=(
                    f"queue wait ~{wait * 1e3:.2f}ms would blow the "
                    f"{slack * 1e3:.2f}ms slack; jumping the queue"
                ),
                estimated_wait_s=wait,
                estimated_execute_s=execute,
            )
        return AdmissionDecision(
            action="admit",
            reason="deadline feasible at current depth",
            estimated_wait_s=wait,
            estimated_execute_s=execute,
        )
