"""Plan-quality audit: the optimizer's memory estimates vs runtime peaks.

The rule-based optimizer (Sec. 7.1) routes every operator by an
*estimated* memory requirement (``input + params + output``).  The
engines meanwhile charge real allocations against deterministic
:class:`~repro.dlruntime.memory.MemoryBudget` objects and report a
per-stage ``peak_memory_bytes`` — a number that used to be dropped on the
floor.  This module closes the loop: the hybrid executor records one
:class:`StageAudit` per executed plan stage, pairing the estimate that
routed the stage with the peak the engine actually reached, and the
auditor classifies each record:

* ``ok`` — the estimate held (actual within the tolerance band);
* ``under-estimate`` — the stage used more than the optimizer budgeted
  (e.g. "UDF stage exceeded its estimate by 2.1x");
* ``over-estimate`` — the stage used far less than budgeted (the rule
  was needlessly pessimistic for this operator);
* ``threshold-breach`` — a whole-tensor (UDF/DL-centric) stage's actual
  peak crossed the routing threshold itself: the rule *should* have
  lowered it to relation-centric;
* ``unnecessary-lowering`` — a stage lowered to relation-centric whose
  actual peak stayed comfortably under the threshold (bounded streaming
  was not needed at this batch size).

Everything lands in three surfaces: registry metrics
(``audit_stage_records_total``, ``audit_mispredictions_total``,
``audit_estimate_ratio``, ``engine_peak_memory_bytes``), the ``SHOW
AUDIT`` SQL statement, and per-query ``Cursor.stats``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple

#: Byte-scaled histogram buckets (64 KiB .. 1 GiB) for memory peaks.
PEAK_BYTE_BUCKETS: tuple[float, ...] = tuple(
    float(1 << p) for p in range(16, 31, 2)
)

#: Ratio buckets for actual/estimated memory.
RATIO_BUCKETS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 4.0, 8.0,
)

#: actual > estimate * OVER_FACTOR counts as an under-estimate;
#: actual < estimate / OVER_FACTOR**2 counts as an over-estimate.
DEFAULT_OVER_FACTOR = 1.25

#: A relation-centric stage whose actual peak is below
#: threshold * UNDER_FRACTION is flagged as unnecessary lowering.
DEFAULT_UNDER_FRACTION = 0.9


class AuditRow(NamedTuple):
    """One row of the ``audit`` system relation (``SHOW AUDIT``)."""

    model: str
    stage: int
    representation: str
    ops: str
    rows: int
    time_ms: float
    estimated_bytes: int
    actual_peak_bytes: int
    ratio: float
    verdict: str
    note: str
    recovery: str


@dataclass(frozen=True)
class StageAudit:
    """One executed plan stage: what was planned vs what happened."""

    model: str
    stage_index: int
    representation: str
    ops: str
    rows: int
    elapsed_seconds: float
    estimated_bytes: int
    actual_peak_bytes: int
    threshold_bytes: int
    verdict: str
    note: str
    #: Runtime-resilience outcome for this stage: ``""`` (ran as planned),
    #: ``"relowered"`` (rescued to relation-centric after OOM/timeout),
    #: ``"split(n)"`` (rescued by splitting the batch into n pieces),
    #: ``"preemptive"`` (lowered before running: engine breaker open), or
    #: ``"gave-up"`` (recovery budget exhausted; the error propagated).
    recovery: str = ""

    @property
    def recovered(self) -> bool:
        """True when the stage completed only thanks to a rescue."""
        return self.recovery not in ("", "gave-up")

    @property
    def ratio(self) -> float:
        """actual / estimated peak bytes (0.0 when there is no estimate)."""
        if self.estimated_bytes <= 0:
            return 0.0
        return self.actual_peak_bytes / self.estimated_bytes

    @property
    def mispredicted(self) -> bool:
        return self.verdict != "ok"

    def as_row(self) -> AuditRow:
        """The ``SHOW AUDIT`` row for this record."""
        return AuditRow(
            self.model,
            self.stage_index,
            self.representation,
            self.ops,
            self.rows,
            round(self.elapsed_seconds * 1e3, 3),
            self.estimated_bytes,
            self.actual_peak_bytes,
            round(self.ratio, 4),
            self.verdict,
            self.note,
            self.recovery,
        )


def classify(
    representation: str,
    estimated_bytes: int,
    actual_peak_bytes: int,
    threshold_bytes: int,
    over_factor: float = DEFAULT_OVER_FACTOR,
    under_fraction: float = DEFAULT_UNDER_FRACTION,
) -> tuple[str, str]:
    """(verdict, human note) for one stage's estimate-vs-actual pair."""
    if representation == "relation-centric":
        # Lowered stages run bounded (stripe-at-a-time); the meaningful
        # comparison is the actual peak against the routing threshold.
        if threshold_bytes > 0 and actual_peak_bytes < threshold_bytes * under_fraction:
            margin = 1.0 - actual_peak_bytes / threshold_bytes
            return (
                "unnecessary-lowering",
                f"lowered to relation-centric but actual peak was "
                f"{margin:.0%} under threshold",
            )
        return "ok", "bounded execution near threshold"
    if threshold_bytes > 0 and actual_peak_bytes > threshold_bytes:
        return (
            "threshold-breach",
            f"{representation} stage peaked at {actual_peak_bytes:,}B, over "
            f"the {threshold_bytes:,}B routing threshold",
        )
    if estimated_bytes <= 0:
        return "ok", "no estimate recorded for this stage"
    ratio = actual_peak_bytes / estimated_bytes
    if ratio > over_factor:
        return (
            "under-estimate",
            f"{representation} stage exceeded its estimate by {ratio:.1f}x",
        )
    if ratio < 1.0 / (over_factor * over_factor):
        return (
            "over-estimate",
            f"actual peak was only {ratio:.0%} of the estimate",
        )
    return "ok", f"actual peak within {ratio:.0%} of estimate"


class PlanAuditor:
    """Collects estimate-vs-actual records and drives the audit metrics.

    A bounded ring of the most recent :class:`StageAudit` records backs
    ``SHOW AUDIT``; ``total_recorded`` grows without bound so callers can
    take a :meth:`marker` before a statement and slice the records that
    statement produced with :meth:`records_since`.

    All mutation happens under one lock so concurrent engine runs (the
    serving front-end's worker pool) cannot drop records or double-count
    ``total_recorded``.  Built with ``enabled=False`` it records nothing.
    """

    def __init__(
        self,
        registry,
        max_records: int = 1024,
        over_factor: float = DEFAULT_OVER_FACTOR,
        under_fraction: float = DEFAULT_UNDER_FRACTION,
        enabled: bool = True,
    ):
        self.enabled = enabled
        self._records: deque[StageAudit] = deque(maxlen=max_records)
        self.total_recorded = 0
        self._lock = threading.Lock()
        self._over_factor = over_factor
        self._under_fraction = under_fraction
        self._registry = registry
        self._m_records = {
            rep: registry.counter(
                "audit_stage_records_total",
                "Executed plan stages audited, by representation",
                representation=rep,
            )
            for rep in ("udf-centric", "relation-centric", "dl-centric")
        }
        self._m_ratio = registry.histogram(
            "audit_estimate_ratio",
            "Actual peak bytes / estimated bytes per executed stage",
            buckets=RATIO_BUCKETS,
        )
        self._m_mispredictions: dict[tuple[str, str], object] = {}
        self._m_peaks: dict[str, object] = {}

    # -- raw engine peaks -------------------------------------------------

    def observe_peak(self, engine: str, peak_bytes: int) -> None:
        """Record one engine invocation's peak memory (any entry point)."""
        if not self.enabled:
            return
        histogram = self._m_peaks.get(engine)
        if histogram is None:
            with self._lock:
                histogram = self._m_peaks.get(engine)
                if histogram is None:
                    histogram = self._registry.histogram(
                        "engine_peak_memory_bytes",
                        "Peak bytes charged per engine invocation",
                        buckets=PEAK_BYTE_BUCKETS,
                        engine=engine,
                    )
                    self._m_peaks[engine] = histogram
        histogram.observe(float(peak_bytes))

    # -- per-stage estimate-vs-actual records -----------------------------

    def record_stage(
        self,
        model: str,
        stage_index: int,
        representation: str,
        ops: str,
        rows: int,
        elapsed_seconds: float,
        estimated_bytes: int,
        actual_peak_bytes: int,
        threshold_bytes: int,
        recovery: str = "",
    ) -> StageAudit | None:
        if not self.enabled:
            return None
        verdict, note = classify(
            representation,
            estimated_bytes,
            actual_peak_bytes,
            threshold_bytes,
            over_factor=self._over_factor,
            under_fraction=self._under_fraction,
        )
        audit = StageAudit(
            model=model,
            stage_index=stage_index,
            representation=representation,
            ops=ops,
            rows=rows,
            elapsed_seconds=elapsed_seconds,
            estimated_bytes=estimated_bytes,
            actual_peak_bytes=actual_peak_bytes,
            threshold_bytes=threshold_bytes,
            verdict=verdict,
            note=note,
            recovery=recovery,
        )
        with self._lock:
            self._records.append(audit)
            self.total_recorded += 1
            mis = None
            if audit.mispredicted:
                key = (representation, verdict)
                mis = self._m_mispredictions.get(key)
                if mis is None:
                    mis = self._registry.counter(
                        "audit_mispredictions_total",
                        "Audited stages whose estimate disagreed with runtime",
                        representation=representation,
                        verdict=verdict,
                    )
                    self._m_mispredictions[key] = mis
        counter = self._m_records.get(representation)
        if counter is not None:
            counter.inc()
        if estimated_bytes > 0:
            self._m_ratio.observe(audit.ratio)
        if mis is not None:
            mis.inc()
        return audit

    # -- query surfaces ---------------------------------------------------

    @property
    def records(self) -> list[StageAudit]:
        with self._lock:
            return list(self._records)

    def __iter__(self) -> Iterator[StageAudit]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self._records)

    def marker(self) -> int:
        """An opaque position; pass to :meth:`records_since` later."""
        return self.total_recorded

    def records_since(self, marker: int) -> list[StageAudit]:
        """Records appended after ``marker`` (bounded by the ring size)."""
        with self._lock:
            new = self.total_recorded - marker
            if new <= 0:
                return []
            return list(self._records)[-min(new, len(self._records)):]

    def mispredictions(self) -> list[StageAudit]:
        return [a for a in self.records if a.mispredicted]

    def rows(self) -> list[AuditRow]:
        """``SHOW AUDIT`` rows, oldest record first."""
        return [audit.as_row() for audit in self.records]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self.total_recorded = 0
