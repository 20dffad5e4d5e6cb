"""The statements of a :class:`~repro.session.Database`: ``execute``,
EXPLAIN [ANALYZE] and the per-statement locking and ``QueryStats``."""

from __future__ import annotations

import math
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ReproError, SchemaError, SqlError
from .lifecycle import DeploymentRow
from .relational.operators import Operator
from .relational.schema import Schema
from .sql import ast as sql_ast
from .sql.parser import STATEMENTS, Shape, fingerprint, lru_put, parse
from .sql.planner import Parameter, Planner, predict_models, scanned_tables
from .storage.catalog import TableInfo
from .telemetry import QueryStats, StageAudit

#: The batch size whose AoT plan ``EXPLAIN`` shows for each PREDICT model.
EXPLAIN_BATCH_SIZE = 256

#: Statements that take the database's read lock: queries, and the
#: lifecycle statements — the deployment controller serializes its own
#: writers on a private mutation lock and publishes every routing change
#: as one atomic snapshot swap, so DEPLOY/ROLLBACK never block (or wait
#: on) serving traffic.  Everything else (DDL/DML) takes the write lock.
_READ_STATEMENTS = (sql_ast.Select, sql_ast.Explain, sql_ast.UnionAll,
                    sql_ast.DeployModel, sql_ast.RollbackModel)


@dataclass
class Cursor:
    """A fully-materialized query result.

    When telemetry is enabled, ``stats`` carries the
    :class:`~repro.telemetry.QueryStats` for the statement that produced
    this cursor (rows, wall-clock time, buffer-pool and result-cache
    deltas, engine seconds, representations executed).
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    stats: QueryStats | None = None

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def fetchall(self) -> list[tuple]:
        return list(self.rows)

    def fetchone(self) -> tuple | None:
        return self.rows[0] if self.rows else None

    def column(self, name: str) -> list[object]:
        idx = self.columns.index(name.lower())
        return [row[idx] for row in self.rows]


def append_rows(info: TableInfo, rows: Iterable[tuple]) -> int:
    """Insert rows, counting each as it lands; returns how many landed.

    A value the row format cannot encode raises :class:`SchemaError`
    naming the table and the row; the rows before it stay, counted."""
    before = info.row_count
    for index, row in enumerate(rows):
        try:
            info.heap.insert(row)
        except (TypeError, ValueError, struct.error) as exc:
            raise SchemaError(
                f"cannot store row {index} in table {info.name!r}: {exc}"
            ) from exc
        info.row_count += 1
    return info.row_count - before


def _render_inference_stages(
    models: list[str], audits: list[StageAudit], audit_enabled: bool
) -> list[str]:
    """The EXPLAIN ANALYZE section covering model inference stages.

    One PREDICT statement runs its plan once per planner batch, so the
    per-batch audit records are aggregated by (model, stage): rows and
    time sum, the actual peak is the worst batch, and the verdict is the
    worst batch's verdict (any misprediction wins over ``ok``).
    """
    lines = ["", f"inference stages (predict: {', '.join(models)}):"]
    if not audit_enabled:
        lines.append("  (telemetry disabled: no estimate-vs-actual audit)")
        return lines
    if not audits:
        lines.append("  (no inference stages executed)")
        return lines
    grouped: dict[tuple[str, int], list[StageAudit]] = {}
    for audit in audits:
        grouped.setdefault((audit.model, audit.stage_index), []).append(audit)
    for (model, idx), batch_audits in sorted(grouped.items()):
        first = batch_audits[0]
        rows = sum(a.rows for a in batch_audits)
        seconds = sum(a.elapsed_seconds for a in batch_audits)
        actual = max(a.actual_peak_bytes for a in batch_audits)
        estimated = max(a.estimated_bytes for a in batch_audits)
        flagged = [a for a in batch_audits if a.mispredicted]
        verdict = flagged[0].verdict if flagged else "ok"
        lines.append(
            f"  {model} stage{idx} [{first.representation}]({first.ops})  "
            f"[rows={rows}, time={seconds * 1e3:.2f}ms, "
            f"est={estimated}B, actual={actual}B, verdict={verdict}]"
        )
    return lines


def _explained(sql: str, analyze: bool) -> sql_ast.Select:
    """The SELECT that ``explain`` (``analyze`` False) or ``explain_analyze``
    takes: the text's own, or the one its matching EXPLAIN form wraps;
    anything else raises :class:`SqlError`."""
    stmt = parse(sql)
    if isinstance(stmt, sql_ast.Explain) and stmt.analyze == analyze:
        stmt = stmt.query
    if not isinstance(stmt, sql_ast.Select):
        raise SqlError(
            f"EXPLAIN {'ANALYZE ' if analyze else ''}supports SELECT statements only"
        )
    return stmt


def _input_shaped(record, features):
    """PREDICT's flat feature rows, one column per input value, in the
    input shape of an image model (other models take the rows as they are)."""
    shape = tuple(record.model.input_shape)
    if len(shape) > 1 and features.shape[1] == math.prod(shape):
        return features.reshape((-1,) + shape)
    return features


def _preparable(template: sql_ast.Statement) -> bool:
    """Whether a shape's plan may be kept: a SELECT that scans no system
    relation (its scan pins a WHERE literal when it is planned)."""
    return isinstance(template, sql_ast.Select) and not (
        template.table.name.startswith("sys.")
        or any(join.table.name.startswith("sys.") for join in template.joins)
    )


@dataclass
class _Prepared:
    """A SELECT shape's plan: valid at one write generation while every
    table it scans is still the catalog's, run with the slot values
    written into ``cells`` (None: the shape is planned per call)."""

    generation: int
    op: Operator | None
    cells: list
    tables: list[TableInfo]


class Statements:
    """Runs SQL text against the catalog, the models and the system
    relations under the database's read/write lock.

    A SELECT whose shape the statement cache keeps runs a prepared plan:
    planned once per write generation with a parameter for each slot,
    then re-run with each call's values (see DESIGN.md item 8).
    """

    def __init__(self, catalog, models, relations, telemetry, pool, rwlock):
        self._catalog = catalog
        self._models = models
        self._telemetry = telemetry
        self._pool = pool
        self._rwlock = rwlock
        self._planner = Planner(
            catalog,
            predict_fn=lambda name, features, proba_class: models.labels(
                name, _input_shaped(models.resolve(name), features), proba_class
            )[0],
            telemetry=telemetry,
            has_model=models.has_model,
            relations=relations,
        )
        # shape -> its prepared plan (least recently used out)
        self._plans: OrderedDict[Shape, _Prepared] = OrderedDict()
        self._plans_lock = threading.Lock()
        registry = telemetry.registry
        self._m_queries = registry.counter("queries_total", "SQL statements executed")
        self._m_query_seconds = registry.histogram(
            "query_seconds", "End-to-end statement latency"
        )

    def execute(self, sql: str) -> Cursor:
        telemetry = self._telemetry
        tracer = telemetry.tracer
        if telemetry.enabled:  # the counters QueryStats are deltas of
            executor = self._models.executor
            pool = self._pool.stats
            pool_before = (pool.hits, pool.misses, pool.evictions)
            cache_before = self._models.cache_totals()
            engine_before = executor.counters()
            audit_marker = telemetry.audit.marker()
        start = time.perf_counter()
        with tracer.span("query", category="sql", sql=sql.strip()[:200]) as query_span:
            with tracer.span("parse", category="sql"):
                shape, literals, stmt = STATEMENTS.find(sql)
                prepared = shape is not None and _preparable(shape.template)
                if prepared:
                    values = shape.values(literals)
                elif stmt is None:
                    stmt = shape.build(literals)
            kind = type(shape.template) if prepared else type(stmt)
            with self._rwlock.read() if kind in _READ_STATEMENTS else self._rwlock.write():
                if prepared:
                    cursor = self._run_prepared(shape, literals, values)
                else:
                    # A SELECT is planned before "execute" opens, so its
                    # "plan" span is a sibling of "parse" and "execute".
                    op = self._planner.plan_select(stmt) if kind is sql_ast.Select else None
                    with tracer.span("execute", category="sql", statement=kind.__name__):
                        cursor = (
                            self._execute_statement(stmt)
                            if op is None
                            else Cursor(op.schema.names, list(op))
                        )
        elapsed = time.perf_counter() - start
        self._m_queries.inc()
        self._m_query_seconds.observe(elapsed)
        if not telemetry.enabled:
            return cursor
        cache_after = self._models.cache_totals()
        engine_after = executor.counters()
        cursor.stats = QueryStats(
            sql=sql,
            statement=kind.__name__,
            rows=len(cursor.rows),
            elapsed_seconds=elapsed,
            pool_hits=pool.hits - pool_before[0],
            pool_misses=pool.misses - pool_before[1],
            pool_evictions=pool.evictions - pool_before[2],
            cache_hits=cache_after[0] - cache_before[0],
            cache_misses=cache_after[1] - cache_before[1],
            engine_seconds=engine_after.engine_seconds - engine_before.engine_seconds,
            representations={
                rep.value: runs - engine_before.stage_runs[rep]
                for rep, runs in engine_after.stage_runs.items()
                if runs > engine_before.stage_runs[rep]
            },
            stage_audits=telemetry.audit.records_since(audit_marker),
            trace_id=query_span.trace_id,
        )
        telemetry.workload.record(
            shape.fingerprint if shape is not None else fingerprint(stmt), cursor.stats
        )
        return cursor

    def _run_prepared(self, shape: Shape, literals: list[str], values: list) -> Cursor:
        """Run a SELECT through its shape's prepared plan, planning one when
        none is current.  The plan is checked out while it runs: a
        concurrent call of the shape plans its own, and a call that raises
        drops it."""
        generation = self._rwlock.generation
        with self._plans_lock:
            prepared = self._plans.pop(shape, None)
        planner = self._planner
        tracer = self._telemetry.tracer
        # One "plan" span and count per SELECT, however its plan is found.
        with tracer.span("plan", category="sql"):
            planner.count_select()
            if (
                prepared is None
                or prepared.generation != generation
                or not all(map(self._catalog.current, prepared.tables))
            ):
                prepared = self._prepare(shape, values, generation)
            else:
                prepared.cells[:] = values
            op = prepared.op
            if op is None:  # this shape plans only with its literals
                op = planner.plan(shape.build(literals))
        with tracer.span("execute", category="sql", statement="Select"):
            cursor = Cursor(op.schema.names, list(op))
        with self._plans_lock:
            lru_put(self._plans, shape, prepared)
        return cursor

    def _prepare(self, shape: Shape, values: list, generation: int) -> _Prepared:
        """A plan of ``shape`` with a parameter per slot; its ``op`` is None
        when the shape does not plan that way, and each call of this
        generation then plans its own literals."""
        cells = list(values)
        try:
            op = self._planner.plan(shape.substitute(Parameter.slots(cells)))
        except ReproError:
            return _Prepared(generation, None, cells, [])
        return _Prepared(generation, op, cells, scanned_tables(op))

    def _execute_statement(self, stmt: sql_ast.Statement) -> Cursor:
        catalog, planner = self._catalog, self._planner
        if isinstance(stmt, sql_ast.CreateTable):
            catalog.create_table(stmt.name, Schema.of(*stmt.columns))
        elif isinstance(stmt, sql_ast.DropTable):
            catalog.drop_table(stmt.name)
        # Writes are validate-then-apply: every row is produced and coerced
        # before the first insert, so a bad row leaves the table unchanged
        # and INSERT ... SELECT never reads the pages it is appending.
        elif isinstance(stmt, sql_ast.Insert):
            info = catalog.get_table(stmt.table)
            append_rows(info, [info.schema.coerce_row(row) for row in stmt.rows])
        elif isinstance(stmt, sql_ast.InsertSelect):
            info = catalog.get_table(stmt.table)
            op = planner.plan_select(stmt.query)
            if len(op.schema) != len(info.schema):
                raise SqlError(
                    f"INSERT INTO {stmt.table}: query yields "
                    f"{len(op.schema)} columns, table has {len(info.schema)}"
                )
            append_rows(info, [info.schema.coerce_row(row) for row in op])
        elif isinstance(stmt, sql_ast.CreateTableAs):
            op = planner.plan_select(stmt.query)
            rows = [op.schema.coerce_row(row) for row in op]
            append_rows(catalog.create_table(stmt.name, op.schema), rows)
        elif isinstance(stmt, (sql_ast.Update, sql_ast.Delete)):
            info = catalog.get_table(stmt.table)
            schema = info.schema
            predicate = stmt.where.bind(schema) if stmt.where is not None else None
            matched = [
                (rid, row)
                for rid, row in info.heap.scan()
                if predicate is None or predicate.eval(row)
            ]
            if isinstance(stmt, sql_ast.Delete):
                for rid, __ in matched:
                    info.heap.delete(rid)
                    info.row_count -= 1
                return Cursor(("deleted",), [(len(matched),)])
            bound = [
                (schema.index_of(col), expr.bind(schema))
                for col, expr in stmt.assignments
            ]
            changed = []
            for rid, row in matched:
                new_row = list(row)
                for idx, expr in bound:
                    new_row[idx] = expr.eval(row)
                changed.append((rid, schema.coerce_row(new_row)))
            # Updates are delete + re-insert (slotted pages do not resize
            # records in place); row identity is not stable across UPDATE.
            for rid, new_row in changed:
                info.heap.delete(rid)
                info.row_count -= 1
                append_rows(info, (new_row,))
            return Cursor(("updated",), [(len(changed),)])
        elif isinstance(stmt, sql_ast.UnionAll):
            from .relational.operators import Concat

            op = Concat([planner.plan_select(q) for q in stmt.queries])
            return Cursor(op.schema.names, list(op))
        elif isinstance(stmt, sql_ast.Explain):
            lines = (
                self._analyze_select(stmt.query)[1].split("\n")
                if stmt.analyze
                else self._explain(stmt.query)
            )
            return Cursor(("plan",), [(line,) for line in lines])
        elif isinstance(stmt, sql_ast.DeployModel):
            dep = self._models.deployments.deploy(
                stmt.model,
                stmt.version,
                canary_percent=stmt.canary_percent,
                shadow=stmt.shadow,
            )
            return Cursor(DeploymentRow._fields, [dep.as_row()])
        elif isinstance(stmt, sql_ast.RollbackModel):
            dep = self._models.deployments.rollback(stmt.model)
            return Cursor(DeploymentRow._fields, [dep.as_row()])
        else:
            raise SqlError(f"unsupported statement type {type(stmt).__name__}")
        return Cursor((), [])

    def explain_analyze(self, sql: str) -> tuple[Cursor, str]:
        return self._analyze_select(_explained(sql, analyze=True))

    def _analyze_select(self, stmt: sql_ast.Select) -> tuple[Cursor, str]:
        """Run one SELECT instrumented; returns (result cursor, report)."""
        from .relational.operators.instrument import instrument

        op = self._planner.plan_select(stmt)
        report = instrument(op)
        audit = self._telemetry.audit
        marker = audit.marker()
        cursor = Cursor(op.schema.names, list(op))
        lines = report.render(op).split("\n")
        models = predict_models(stmt)
        if models:
            lines.extend(
                _render_inference_stages(
                    models, audit.records_since(marker), audit.enabled
                )
            )
        return cursor, "\n".join(lines)

    def explain(self, sql: str) -> str:
        return "\n".join(self._explain(_explained(sql, analyze=False)))

    def _explain(self, stmt: sql_ast.Select) -> list[str]:
        lines = self._planner.plan_select(stmt).explain().split("\n")
        for model in predict_models(stmt):
            compiled = self._models.compiled_for(self._models.resolve(model).model)
            lines.append("")
            lines.extend(compiled.select(EXPLAIN_BATCH_SIZE).explain().split("\n"))
        return lines
