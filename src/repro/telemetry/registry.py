"""Process-wide metrics: counters, gauges, and histograms.

The registry is the only store for the counters components keep: the
buffer pool's hits and misses, the result caches', the fault injector's
per-site fires, retries and recoveries.  Subsystems register metrics by
name (plus optional labels) and get the *same* metric object back on
every call, so hot paths hold a direct reference and pay one locked add
per event.  A component's ``stats`` (a :class:`CounterView`) reads its
counters live.

Counters are system state and always live: a component takes its
registry or defaults to a private ``MetricsRegistry()``, and disabled
telemetry stops *exporting* the registry (``SHOW METRICS``,
``Database.metrics_text()``, the diagnostics bundle), not counting into
it, so ``SHOW HEALTH`` / ``SHOW SERVER`` / ``SHOW CLUSTER`` read the same
numbers either way.

Rendering follows the Prometheus text exposition format
(``render_prometheus``), so the output can be scraped or diffed by
standard tooling; :meth:`MetricsRegistry.snapshot` gives the same data as
a flat ``{name{labels}: value}`` dict, and :meth:`MetricsRegistry.rows`
as the ``SHOW METRICS`` relation.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterator

from ..errors import TelemetryError
from ..relational.schema import ColumnType, Schema

#: The ``metrics`` system relation (``SHOW METRICS``, see ``rows``).
METRICS_SCHEMA = Schema.of(
    ("name", ColumnType.TEXT),
    ("value", ColumnType.DOUBLE),
    ("p50", ColumnType.DOUBLE),
    ("p95", ColumnType.DOUBLE),
    ("p99", ColumnType.DOUBLE),
)

#: Default histogram buckets, tuned for operator/query latencies (seconds).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5,
    1e-4,
    5e-4,
    1e-3,
    5e-3,
    1e-2,
    5e-2,
    1e-1,
    5e-1,
    1.0,
    5.0,
    10.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


class Counter:
    """A monotonically increasing counter.

    Updates are guarded by a per-metric lock: ``+=`` on a float is a
    read-modify-write, so unlocked concurrent engine runs can lose
    increments.
    """

    kind = "counter"
    __slots__ = ("name", "help", "labels", "_value", "_lock")

    def __init__(self, name: str, help: str = "", labels: LabelKey = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} can only increase (got {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def samples(self) -> Iterator[tuple[str, str, float]]:
        yield self.name + _render_labels(self.labels), self.kind, self._value


class Gauge:
    """A value that can go up and down (e.g. resident buffer-pool pages)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "_value", "_lock")

    def __init__(self, name: str, help: str = "", labels: LabelKey = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def samples(self) -> Iterator[tuple[str, str, float]]:
        yield self.name + _render_labels(self.labels), self.kind, self._value


class Histogram:
    """A distribution with cumulative latency buckets (Prometheus-style)."""

    kind = "histogram"
    __slots__ = (
        "name", "help", "labels", "_bounds", "_bucket_counts", "_count", "_sum", "_lock"
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: LabelKey = (),
        buckets: tuple[float, ...] | None = None,
    ):
        bounds = tuple(sorted(set(buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS)))
        if not bounds:
            raise TelemetryError(f"histogram {name!r} needs at least one bucket")
        self.name = name
        self.help = help
        self.labels = labels
        self._bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        bucket = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._bucket_counts[bucket] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile by linear interpolation within buckets.

        Mirrors Prometheus' ``histogram_quantile``: the target rank is
        located in the cumulative bucket counts, then interpolated
        linearly between the bucket's bounds.  Observations in the +Inf
        bucket clamp to the highest finite bound (the estimate cannot
        exceed what the buckets can express).
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must be in [0, 1] (got {q})")
        with self._lock:
            counts = list(self._bucket_counts)
            total = self._count
        if total == 0:
            return 0.0
        rank = q * total
        running = 0
        for i, n in enumerate(counts):
            if running + n >= rank and n > 0:
                if i >= len(self._bounds):  # +Inf bucket: clamp
                    return self._bounds[-1]
                lower = self._bounds[i - 1] if i > 0 else 0.0
                upper = self._bounds[i]
                return lower + (upper - lower) * ((rank - running) / n)
            running += n
        return self._bounds[-1]

    def bucket_counts(self) -> dict[float, int]:
        """Cumulative counts keyed by upper bound (+Inf as ``float('inf')``)."""
        with self._lock:
            counts = list(self._bucket_counts)
        out: dict[float, int] = {}
        running = 0
        for bound, n in zip(self._bounds + (float("inf"),), counts):
            running += n
            out[bound] = running
        return out

    def reset(self) -> None:
        with self._lock:
            self._bucket_counts = [0] * (len(self._bounds) + 1)
            self._count = 0
            self._sum = 0.0

    def samples(self) -> Iterator[tuple[str, str, float]]:
        for bound, cumulative in self.bucket_counts().items():
            le = "+Inf" if bound == float("inf") else repr(bound)
            yield (
                self.name + "_bucket" + _render_labels(self.labels, (("le", le),)),
                self.kind,
                float(cumulative),
            )
        yield self.name + "_sum" + _render_labels(self.labels), self.kind, self._sum
        yield self.name + "_count" + _render_labels(self.labels), self.kind, float(self._count)


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named metrics with get-or-create semantics.

    Asking twice for the same ``(name, labels)`` returns the same object;
    asking for an existing name with a different metric kind raises
    :class:`~repro.errors.TelemetryError` (one name maps to one kind, as
    in Prometheus).
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelKey], Metric] = {}
        self._kinds: dict[str, str] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(list(self._metrics.values()))

    def _get_or_create(
        self, cls: type, name: str, help: str, labels: dict[str, object], **kwargs: object
    ) -> Metric:
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TelemetryError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            kind = self._kinds.get(name)
            if kind is not None and kind != cls.kind:
                raise TelemetryError(
                    f"metric {name!r} already registered as {kind}, "
                    f"cannot re-register as {cls.kind}"
                )
            metric = cls(name, help, key[1], **kwargs)
            self._metrics[key] = metric
            self._kinds[name] = cls.kind
            return metric

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        return self._get_or_create(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: object,
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, labels, buckets=buckets
        )

    def get(self, name: str, **labels: object) -> Metric | None:
        """The metric registered under ``(name, labels)``, or None."""
        return self._metrics.get((name, _label_key(labels)))

    def snapshot(self) -> dict[str, float]:
        """Every sample as a flat ``{rendered name: value}`` dict."""
        out: dict[str, float] = {}
        for metric in self:
            for rendered, __, value in metric.samples():
                out[rendered] = value
        return out

    def rows(self) -> list[tuple]:
        """``SHOW METRICS`` rows (:data:`METRICS_SCHEMA`), sorted by name.

        Every sample of :meth:`snapshot` with NULL quantiles, plus one
        summary row per histogram: ``(name, count, p50, p95, p99)``.  A
        histogram with zero observations has no quantiles at all — its
        columns render as SQL NULL (``None``), not a misleading ``0.0``.
        """
        nulls = (None, None, None)
        rows = [(name, value) + nulls for name, value in self.snapshot().items()]
        for metric in self:
            if isinstance(metric, Histogram):
                rendered = metric.name + _render_labels(metric.labels)
                if metric.count == 0:
                    rows.append((rendered, 0.0) + nulls)
                else:
                    rows.append(
                        (rendered, float(metric.count))
                        + tuple(
                            round(metric.quantile(q), 9) for q in (0.5, 0.95, 0.99)
                        )
                    )
        return sorted(rows, key=lambda r: r[0])

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: list[str] = []
        seen_names: set[str] = set()
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if metric.name not in seen_names:
                seen_names.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            for rendered, __, value in metric.samples():
                formatted = repr(value) if value != int(value) else str(int(value))
                lines.append(f"{rendered} {formatted}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Zero every metric (objects and identities are preserved)."""
        for metric in self:
            metric.reset()


class CounterView:
    """Live named reads of a component's registry metrics (its ``stats``).

    ``view.hits`` is the ``hits`` counter's current value as an int (a
    histogram reads as its running sum), so the registry stays the only
    store of the fact.  :meth:`reset` zeroes the underlying metrics.
    """

    __slots__ = ("_metrics",)

    def __init__(self, **metrics: Counter | Histogram) -> None:
        self._metrics = metrics

    def __getattr__(self, name: str) -> float:
        try:
            metric = self._metrics[name]
        except KeyError:
            raise AttributeError(name) from None
        return metric.sum if isinstance(metric, Histogram) else int(metric.value)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset()
