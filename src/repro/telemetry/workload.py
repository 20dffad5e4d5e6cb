"""Workload intelligence: query fingerprints and per-shape aggregates.

Recurring query *shapes* — not individual statements — are what the
plan-compile cache, scale-out placement, and model-versioning layers need
to reason about.  This module normalizes a parsed statement into a stable
**fingerprint** (every literal replaced by a ``'?'`` placeholder, then
rendered through the canonical :func:`repro.sql.unparse.unparse` form and
hashed), so ``WHERE x = 1`` and ``WHERE x = 2`` — or the same statement
reformatted or re-cased — collapse into one workload entry.

A bounded :class:`WorkloadStore` aggregates per-fingerprint execution
statistics from :class:`~repro.telemetry.query_stats.QueryStats` on every
``Database.execute``: call count, a latency histogram, rows and bytes
read, engine representation mix, result-cache hit ratio, runtime
recoveries, and the last plan summary.  The ``sys.workload`` relation
(``SHOW WORKLOAD [TOP k BY latency|count|bytes]``) is the aggregate view
and ``sys.workload_detail`` (``SHOW WORKLOAD '<fingerprint>'``) the
per-shape detail view.

The store doubles as the **plan-regression detector**: each fingerprint
keeps a rolling latency baseline (seeded over a warmup window, then
exponentially aged) and a last-plan summary; a fresh execution that blows
past ``regression_factor`` times the baseline, or that switches
representation mix, emits a ``workload.regression`` flight-recorder event
and bumps ``workload_regressions_total``.
"""

from __future__ import annotations

import hashlib
import threading

from ..relational.expressions import (
    BinaryOp,
    CaseWhen,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    IsNull,
    Like,
    Literal,
    LogicalOp,
    UnaryOp,
)
from ..relational.schema import ColumnType, Schema
from .registry import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry

# The sql package transitively imports storage (which imports telemetry
# for its metrics); loading it lazily on first fingerprint breaks the
# cycle without pushing imports into the per-query hot path (after the
# first call these are module-dict lookups).
sql_ast = None
unparse = None


def _ensure_sql() -> None:
    global sql_ast, unparse
    if sql_ast is None:
        from ..sql import ast as _ast
        from ..sql.unparse import unparse as _unparse

        sql_ast = _ast
        unparse = _unparse

#: The ``workload`` system relation (``SHOW WORKLOAD [TOP k BY ...]``).
WORKLOAD_SCHEMA = Schema.of(
    ("fingerprint", ColumnType.TEXT),
    ("statement", ColumnType.TEXT),
    ("calls", ColumnType.INT),
    ("mean_ms", ColumnType.DOUBLE),
    ("p50_ms", ColumnType.DOUBLE),
    ("p95_ms", ColumnType.DOUBLE),
    ("rows", ColumnType.INT),
    ("bytes", ColumnType.INT),
    ("cache_hit_rate", ColumnType.DOUBLE),
    ("recoveries", ColumnType.INT),
    ("plan", ColumnType.TEXT),
    ("sql", ColumnType.TEXT),
)
WORKLOAD_COLUMNS = WORKLOAD_SCHEMA.names

#: The ``workload_detail`` system relation (``SHOW WORKLOAD '<fp>'``):
#: ``value`` is declared TEXT and holds each statistic unchanged.
WORKLOAD_DETAIL_SCHEMA = Schema.of(
    ("fingerprint", ColumnType.TEXT),
    ("stat", ColumnType.TEXT),
    ("value", ColumnType.TEXT),
)

#: The literal placeholder normalized statements carry.
PLACEHOLDER = "?"


# -- fingerprinting ------------------------------------------------------


def _norm_expr(expr: Expression) -> Expression:
    """One expression with every literal value replaced by ``'?'``."""
    if isinstance(expr, Literal):
        return Literal(PLACEHOLDER)
    if isinstance(expr, ColumnRef):
        return expr
    if isinstance(expr, UnaryOp):
        # "-5" parses as UnaryOp("-", Literal(5)): collapse it with the
        # positive form so `x = -1` and `x = 1` share a fingerprint.
        if expr.op == "-" and isinstance(expr.operand, Literal):
            return Literal(PLACEHOLDER)
        return UnaryOp(expr.op, _norm_expr(expr.operand))
    if isinstance(expr, (BinaryOp, Comparison, LogicalOp)):
        return type(expr)(expr.op, _norm_expr(expr.left), _norm_expr(expr.right))
    if isinstance(expr, IsNull):
        return IsNull(_norm_expr(expr.operand), expr.negated)
    if isinstance(expr, Like):
        return Like(_norm_expr(expr.operand), PLACEHOLDER, expr.negated)
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            tuple(
                (_norm_expr(cond), _norm_expr(value))
                for cond, value in expr.branches
            ),
            _norm_expr(expr.default) if expr.default is not None else None,
        )
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, tuple(_norm_expr(a) for a in expr.args))
    return expr


def _norm_item(item):
    expr = item.expr
    if isinstance(expr, sql_ast.Star):
        return item
    if isinstance(expr, sql_ast.AggregateCall):
        normalized: object = sql_ast.AggregateCall(
            expr.func, _norm_expr(expr.arg) if expr.arg is not None else None
        )
    elif isinstance(expr, sql_ast.PredictCall):
        normalized = sql_ast.PredictCall(
            expr.model, [_norm_expr(a) for a in expr.args], expr.proba_class
        )
    else:
        normalized = _norm_expr(expr)
    return sql_ast.SelectItem(normalized, item.alias)


def _norm_select(stmt):
    return sql_ast.Select(
        items=[_norm_item(item) for item in stmt.items],
        table=stmt.table,
        joins=[
            sql_ast.Join(join.table, _norm_expr(join.condition), join.kind)
            for join in stmt.joins
        ],
        where=_norm_expr(stmt.where) if stmt.where is not None else None,
        group_by=[_norm_expr(e) for e in stmt.group_by],
        order_by=[(_norm_expr(e), desc) for e, desc in stmt.order_by],
        # LIMIT/OFFSET values are literals too: `LIMIT 5` and `LIMIT 10`
        # are the same shape.  Presence is kept, the value is zeroed.
        limit=0 if stmt.limit is not None else None,
        offset=0,
        distinct=stmt.distinct,
        having=_norm_expr(stmt.having) if stmt.having is not None else None,
    )


def normalize(stmt):
    """One statement with every literal stripped to ``'?'``.

    The result still unparses/reparses (placeholders are string
    literals), which is what makes the fingerprint stable across
    whitespace, casing, and ``parse(unparse(s))`` round-trips: the lexer
    lowercases identifiers and :func:`unparse` is canonical.
    """
    _ensure_sql()
    if isinstance(stmt, sql_ast.Select):
        return _norm_select(stmt)
    if isinstance(stmt, sql_ast.UnionAll):
        return sql_ast.UnionAll([_norm_select(q) for q in stmt.queries])
    if isinstance(stmt, sql_ast.Explain):
        return sql_ast.Explain(_norm_select(stmt.query), stmt.analyze)
    if isinstance(stmt, sql_ast.Insert):
        # Bulk loads differ only in row count and values: collapse to one
        # row of placeholders, keeping the column arity.
        arity = len(stmt.rows[0]) if stmt.rows else 0
        return sql_ast.Insert(stmt.table, [[PLACEHOLDER] * arity])
    if isinstance(stmt, sql_ast.InsertSelect):
        return sql_ast.InsertSelect(stmt.table, _norm_select(stmt.query))
    if isinstance(stmt, sql_ast.CreateTableAs):
        return sql_ast.CreateTableAs(stmt.name, _norm_select(stmt.query))
    if isinstance(stmt, sql_ast.Update):
        return sql_ast.Update(
            stmt.table,
            [(col, _norm_expr(expr)) for col, expr in stmt.assignments],
            _norm_expr(stmt.where) if stmt.where is not None else None,
        )
    if isinstance(stmt, sql_ast.Delete):
        return sql_ast.Delete(
            stmt.table,
            _norm_expr(stmt.where) if stmt.where is not None else None,
        )
    # CreateTable / DropTable carry no literals.
    return stmt


def fingerprint(stmt) -> tuple[str, str]:
    """``(fingerprint, normalized sql)`` for one parsed statement.

    The fingerprint is the first 12 hex digits of the SHA-1 of the
    normalized statement's canonical unparse — short enough to type into
    ``SHOW WORKLOAD '<fp>'``, long enough that collisions within one
    session's workload are negligible.
    """
    _ensure_sql()
    text = unparse(normalize(stmt))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12], text


# -- the bounded per-fingerprint store -----------------------------------


class _Entry:
    """Aggregated execution state for one query fingerprint."""

    __slots__ = (
        "fingerprint",
        "text",
        "statement",
        "calls",
        "total_seconds",
        "total_rows",
        "total_bytes",
        "latency",
        "cache_hits",
        "cache_misses",
        "recoveries",
        "representations",
        "plan_summary",
        "last_trace_id",
        "last_used",
        "baseline_seconds",
        "warmup_seconds",
        "regressions",
    )

    def __init__(self, fp: str, text: str, statement: str):
        self.fingerprint = fp
        self.text = text
        self.statement = statement
        self.calls = 0
        self.total_seconds = 0.0
        self.total_rows = 0
        self.total_bytes = 0
        self.latency = Histogram(
            "workload_latency_seconds", buckets=DEFAULT_LATENCY_BUCKETS
        )
        self.cache_hits = 0
        self.cache_misses = 0
        self.recoveries = 0
        self.representations: dict[str, int] = {}
        self.plan_summary = ""
        self.last_trace_id = 0
        self.last_used = 0
        self.baseline_seconds = 0.0
        self.warmup_seconds = 0.0
        self.regressions = 0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def _plan_summary(representations: dict[str, int]) -> str:
    if not representations:
        return "-"
    return ",".join(
        f"{rep}={count}" for rep, count in sorted(representations.items())
    )


class WorkloadStore:
    """Bounded per-fingerprint workload aggregates (thread-safe).

    At most ``max_fingerprints`` shapes are tracked; recording a new
    shape at capacity evicts the least-recently-seen one (counted in
    ``workload_evicted_total``), so a run of one-off ad-hoc statements
    cannot push out the recurring shapes that matter.
    """

    enabled = True

    def __init__(
        self,
        max_fingerprints: int = 512,
        page_size: int = 64 * 1024,
        regression_factor: float = 3.0,
        regression_warmup: int = 8,
        regression_min_ms: float = 5.0,
        metrics=None,
        recorder=None,
    ):
        if max_fingerprints < 1:
            from ..errors import TelemetryError

            raise TelemetryError("max_fingerprints must be >= 1")
        self.max_fingerprints = max_fingerprints
        self.page_size = page_size
        self.regression_factor = regression_factor
        self.regression_warmup = max(1, regression_warmup)
        self.regression_min_seconds = regression_min_ms / 1e3
        self._entries: dict[str, _Entry] = {}
        self._lock = threading.Lock()
        self._clock = 0  # recency counter for LRU eviction (no wall time)
        self.evicted_total = 0
        self.recorded_total = 0
        self._recorder = recorder
        registry = metrics if metrics is not None else MetricsRegistry()
        self._m_regressions = registry.counter(
            "workload_regressions_total",
            "Fingerprints whose fresh latency or plan regressed "
            "against the rolling baseline",
        )
        self._m_evicted = registry.counter(
            "workload_evicted_total",
            "Fingerprints evicted from the bounded workload store",
        )
        self._m_fingerprints = registry.gauge(
            "workload_fingerprints", "Distinct query shapes tracked"
        )

    def __len__(self) -> int:
        return len(self._entries)

    def record(
        self, stmt: sql_ast.Statement, stats, fingerprinted: tuple[str, str] | None = None
    ) -> str:
        """Fold one executed statement's ``QueryStats`` into the store.

        Returns the statement's fingerprint.  ``fingerprinted`` is
        :func:`fingerprint`'s result when the caller already has it (the
        statement cache keeps it per shape).  Called by
        ``Database.execute`` after the per-query stats are assembled, so
        it never holds the store lock while the query runs.
        """
        fp, text = fingerprinted or fingerprint(stmt)
        bytes_read = stats.pool_misses * self.page_size
        with self._lock:
            self._clock += 1
            entry = self._entries.get(fp)
            if entry is None:
                if len(self._entries) >= self.max_fingerprints:
                    self._evict_locked()
                entry = _Entry(fp, text, type(stmt).__name__)
                self._entries[fp] = entry
                self._m_fingerprints.set(len(self._entries))
            entry.last_used = self._clock
            entry.calls += 1
            entry.total_seconds += stats.elapsed_seconds
            entry.total_rows += stats.rows
            entry.total_bytes += bytes_read
            entry.latency.observe(stats.elapsed_seconds)
            entry.cache_hits += stats.cache_hits
            entry.cache_misses += stats.cache_misses
            entry.recoveries += stats.recovered_stages
            for rep, count in stats.representations.items():
                entry.representations[rep] = (
                    entry.representations.get(rep, 0) + count
                )
            if stats.trace_id:
                entry.last_trace_id = stats.trace_id
            self.recorded_total += 1
            self._detect_regression_locked(entry, stats)
        return fp

    def _evict_locked(self) -> None:
        victim = min(self._entries.values(), key=lambda e: e.last_used)
        del self._entries[victim.fingerprint]
        self.evicted_total += 1
        self._m_evicted.inc()

    def _detect_regression_locked(self, entry: _Entry, stats) -> None:
        """Compare one fresh execution against the fingerprint's baseline.

        The baseline latency is the mean of the first ``warmup`` calls,
        then exponentially aged (alpha 0.2) so a persistently slower
        world re-baselines instead of alerting forever.  Plan choice is
        compared as the representation-mix summary of this execution.
        """
        elapsed = stats.elapsed_seconds
        plan_now = _plan_summary(stats.representations)
        if entry.calls <= self.regression_warmup:
            entry.warmup_seconds += elapsed
            entry.baseline_seconds = entry.warmup_seconds / entry.calls
            if stats.representations or entry.calls == 1:
                entry.plan_summary = plan_now
            return
        baseline = entry.baseline_seconds
        slow = (
            elapsed > baseline * self.regression_factor
            and elapsed - baseline >= self.regression_min_seconds
        )
        plan_changed = (
            bool(stats.representations)
            and entry.plan_summary not in ("", "-")
            and plan_now != entry.plan_summary
        )
        if slow or plan_changed:
            entry.regressions += 1
            self._m_regressions.inc()
            if self._recorder is not None:
                self._recorder.emit(
                    "workload.regression",
                    trace_id=stats.trace_id or None,
                    fingerprint=entry.fingerprint,
                    regression="plan" if plan_changed else "latency",
                    latency_ms=round(elapsed * 1e3, 3),
                    baseline_ms=round(baseline * 1e3, 3),
                    plan=plan_now,
                    previous_plan=entry.plan_summary,
                )
        entry.baseline_seconds = baseline + 0.2 * (elapsed - baseline)
        if stats.representations:
            entry.plan_summary = plan_now

    # -- rendering -------------------------------------------------------

    def _row(self, entry: _Entry) -> tuple:
        return (
            entry.fingerprint,
            entry.statement,
            entry.calls,
            round(entry.mean_seconds * 1e3, 3),
            round(entry.latency.quantile(0.5) * 1e3, 3),
            round(entry.latency.quantile(0.95) * 1e3, 3),
            entry.total_rows,
            entry.total_bytes,
            round(entry.cache_hit_rate, 4),
            entry.recoveries,
            entry.plan_summary or "-",
            entry.text,
        )

    @staticmethod
    def _detail(entry: _Entry) -> list[tuple[str, object]]:
        """One entry's ``(stat, value)`` pairs (``SHOW WORKLOAD '<fp>'``)."""
        rows: list[tuple[str, object]] = [
            ("fingerprint", entry.fingerprint),
            ("sql", entry.text),
            ("statement", entry.statement),
            ("calls", entry.calls),
            ("mean_ms", round(entry.mean_seconds * 1e3, 3)),
            ("p50_ms", round(entry.latency.quantile(0.5) * 1e3, 3)),
            ("p95_ms", round(entry.latency.quantile(0.95) * 1e3, 3)),
            ("p99_ms", round(entry.latency.quantile(0.99) * 1e3, 3)),
            ("rows", entry.total_rows),
            ("bytes", entry.total_bytes),
            ("cache_hits", entry.cache_hits),
            ("cache_misses", entry.cache_misses),
            ("cache_hit_rate", round(entry.cache_hit_rate, 4)),
            ("recoveries", entry.recoveries),
            ("regressions", entry.regressions),
            ("baseline_ms", round(entry.baseline_seconds * 1e3, 3)),
            ("plan", entry.plan_summary or "-"),
        ]
        for rep, count in sorted(entry.representations.items()):
            rows.append((f"stages[{rep}]", count))
        if entry.last_trace_id:
            rows.append(("last_trace_id", entry.last_trace_id))
        return rows

    def _ranked_locked(self) -> list[_Entry]:
        """Entries by total latency, hottest first, then by fingerprint."""
        return sorted(
            self._entries.values(), key=lambda e: (-e.total_seconds, e.fingerprint)
        )

    def top_rows(self) -> list[tuple]:
        """``sys.workload`` rows (:data:`WORKLOAD_COLUMNS`), hottest first."""
        with self._lock:
            return [self._row(e) for e in self._ranked_locked()]

    def detail_rows(self) -> list[tuple[str, str, object]]:
        """``sys.workload_detail`` rows: each entry's ``(fingerprint, stat,
        value)`` triples, entries in :meth:`top_rows` order."""
        with self._lock:
            return [
                (entry.fingerprint, stat, value)
                for entry in self._ranked_locked()
                for stat, value in self._detail(entry)
            ]

    def regressions_total(self) -> int:
        with self._lock:
            return sum(e.regressions for e in self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.evicted_total = 0
            self.recorded_total = 0


class NullWorkloadStore:
    """No-op workload store for disabled telemetry."""

    enabled = False
    max_fingerprints = 0
    evicted_total = 0
    recorded_total = 0

    def __len__(self) -> int:
        return 0

    def record(self, stmt, stats, fingerprinted=None) -> str:
        return ""

    def top_rows(self) -> list[tuple]:
        return []

    def detail_rows(self) -> list[tuple[str, str, object]]:
        return []

    def regressions_total(self) -> int:
        return 0

    def clear(self) -> None:
        pass


#: Shared no-op store for disabled telemetry.
NULL_WORKLOAD = NullWorkloadStore()
