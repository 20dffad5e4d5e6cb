"""Percentiles that refuse to over-read a sample, and run-to-run spread."""

from __future__ import annotations

import statistics

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

TAIL_CANDIDATES = (99.0, 95.0, 90.0)


def samples_beyond(n: int, q: float) -> int:
    return int(n * (100.0 - q) / 100.0 + 1e-9)


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile; the median is always allowed, a tail
    percentile only with :data:`MIN_BEYOND` samples beyond it."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples")
    if q > 50.0 and samples_beyond(samples.size, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {samples.size} samples has "
            f"{samples_beyond(samples.size, q)} beyond it (< {MIN_BEYOND})"
        )
    return float(np.percentile(samples, q))


def tail_q(n: int) -> float:
    """The highest percentile ``n`` samples support (the median if none)."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return 50.0


def segment_median(samples, q: float, segments: int = 5) -> float:
    """Median over consecutive segments of each segment's ``q``-th percentile.

    A pooled tail percentile on a shared host is set by the one segment a
    neighbour disturbed; the median of segment values is not.
    """
    parts = np.array_split(np.asarray(samples, dtype=float), segments)
    return statistics.median(percentile(p, q) for p in parts)


#: Consecutive segments a run's ops are cut into for the undisturbed estimate,
#: and the fewest ops a segment may hold (so that its median is one).
SEGMENTS = 20
MIN_SEGMENT_OPS = 3


def split(samples, segments: int = SEGMENTS) -> list[np.ndarray]:
    """Up to ``segments`` consecutive, near-equal parts of at least
    :data:`MIN_SEGMENT_OPS` samples (one part if there are fewer)."""
    samples = np.asarray(samples, dtype=float)
    return np.array_split(samples, max(1, min(segments, samples.size // MIN_SEGMENT_OPS)))


def least_disturbed(values, higher_is_better: bool = False) -> float:
    """The best of ``values``: the lowest, or the highest for a rate.

    This host alternates between a fast and a slow state (a neighbour on the
    sibling hyperthread, the hypervisor's halt polling) for seconds at a
    time; interference only ever slows a stretch down, so the best of a
    run's stretches estimates the program's own speed far more repeatably
    than all of them do.  Each value is itself a median or a rate over many
    ops, so one lucky op cannot set it.
    """
    values = np.asarray(values, dtype=float)
    return float(values.max() if higher_is_better else values.min())


def undisturbed_p50(samples) -> float:
    """Median latency over the least disturbed twentieth of the run: the
    lowest of the per-segment medians."""
    return least_disturbed([np.median(part) for part in split(samples)])


def segment_tail(samples, segments: int = 5) -> tuple[float, float]:
    """``(q, value)``: the highest percentile every segment supports."""
    q = tail_q(len(samples) // segments)
    return q, segment_median(samples, q, segments)


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))
