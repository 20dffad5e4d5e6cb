"""Translating SQL ASTs into physical operator trees.

``PREDICT`` items do not evaluate like scalar expressions: the planner
assembles a feature matrix per batch and routes it to a *predict
function* supplied by the session, which is where the adaptive optimizer
and the hybrid executor take over.  The relational part of the query and
the inference part therefore share one operator tree — the premise of the
paper's unified architecture.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..errors import BindError, PlanError, SqlError
from ..relational.batch import Batch
from ..relational.expressions import ColumnRef, Comparison, Expression, LogicalOp
from ..relational.operators import (
    Aggregate,
    AggregateSpec,
    Distinct,
    Filter,
    GeneratorScan,
    HashJoin,
    Limit,
    MapBatches,
    NestedLoopJoin,
    Operator,
    Project,
    SeqScan,
    Sort,
    SortKey,
)
from ..relational.schema import Column, ColumnType, Schema
from ..storage.catalog import Catalog
from ..telemetry import Telemetry
from .ast import AggregateCall, Join, PredictCall, Select, SelectItem, Star, TableRef

# (model name, feature matrix, proba class or None) -> predictions:
# integer labels when proba class is None, class probabilities otherwise.
PredictFunction = Callable[[str, np.ndarray, "int | None"], np.ndarray]


#: The system relations: name -> (schema, rows callable).  ``FROM
#: sys.<name>`` scans one; the callable runs only when the plan executes.
Relations = Mapping[str, tuple[Schema, Callable[[], list]]]


class Planner:
    """Builds physical plans against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        predict_fn: PredictFunction | None = None,
        predict_batch_size: int = 1024,
        telemetry: Telemetry | None = None,
        has_model: Callable[[str], bool] | None = None,
        relations: Relations | None = None,
    ):
        self._catalog = catalog
        self._relations = relations if relations is not None else {}
        self._predict_fn = predict_fn
        # Models live outside the table catalog; with no checker (a
        # stubbed predict_fn) unknown names surface at execution.
        self._has_model = has_model
        self._batch_size = predict_batch_size
        self._telemetry = telemetry or Telemetry(enabled=False)
        self._m_plans = self._telemetry.registry.counter(
            "planner_selects_total", "SELECT statements planned"
        )

    def plan_select(self, stmt: Select) -> Operator:
        with self._telemetry.tracer.span("plan", category="sql"):
            self._m_plans.inc()
            return self._plan_select(stmt)

    def _plan_select(self, stmt: Select) -> Operator:
        source = self._plan_from(stmt)
        if stmt.where is not None:
            source = Filter(source, stmt.where)
        has_aggregates = stmt.group_by or any(
            isinstance(item.expr, AggregateCall) for item in stmt.items
        )
        has_predict = any(isinstance(item.expr, PredictCall) for item in stmt.items)
        if has_aggregates and has_predict:
            raise PlanError("PREDICT cannot be combined with aggregation")
        sorted_early = False
        if stmt.order_by and not has_aggregates and not has_predict:
            # Prefer sorting before the projection so ORDER BY can use
            # columns the projection drops; fall back to sorting the
            # output when the keys reference projection aliases.
            if _keys_bind(stmt.order_by, source.schema):
                source = Sort(
                    source, [SortKey(expr, desc) for expr, desc in stmt.order_by]
                )
                sorted_early = True
        if has_aggregates:
            op = self._plan_aggregate(stmt, source)
            if stmt.having is not None:
                op = Filter(op, stmt.having)
        elif has_predict:
            op = self._plan_predict(stmt, source)
        else:
            op = self._plan_projection(stmt, source)
        if stmt.distinct:
            op = Distinct(op)
        if stmt.order_by and not sorted_early:
            op = Sort(op, [SortKey(expr, desc) for expr, desc in stmt.order_by])
        if stmt.limit is not None:
            op = Limit(op, stmt.limit, stmt.offset)
        return op

    # -- FROM / JOIN -----------------------------------------------------

    def _scan(self, ref: TableRef, qualify: bool) -> Operator:
        alias = ref.alias or (ref.name if qualify else None)
        if not ref.name.startswith("sys."):
            return SeqScan(self._catalog.get_table(ref.name), alias=alias)
        relation = self._relations.get(ref.name[4:])
        if relation is None:
            raise SqlError(
                f"unknown system relation {ref.name!r}; expected one of "
                + ", ".join(f"sys.{name}" for name in self._relations)
            )
        schema, rows = relation
        label = ref.name + (f" AS {ref.alias}" if ref.alias else "")
        return GeneratorScan(schema.qualified(alias), lambda: iter(rows()), label)

    def _plan_from(self, stmt: Select) -> Operator:
        qualify = bool(stmt.joins)
        source = self._scan(stmt.table, qualify)
        for join in stmt.joins:
            right = self._scan(join.table, qualify=True)
            source = self._plan_join(source, right, join)
        return source

    def _plan_join(self, left: Operator, right: Operator, join: Join) -> Operator:
        keys = _equi_keys(join.condition, left.schema, right.schema)
        if keys is not None:
            left_keys, right_keys = keys
            if join.kind == "inner" and _estimated_rows(right) is not None:
                left_rows = _estimated_rows(left)
                right_rows = _estimated_rows(right)
                if left_rows is not None and right_rows < left_rows:
                    # Build on the smaller input (catalog cardinalities),
                    # then restore the written column order.
                    swapped = HashJoin(
                        right, left, right_keys, left_keys, join_type="inner"
                    )
                    original_order = list(left.schema.names) + list(
                        right.schema.names
                    )
                    return Project(
                        swapped, [(ColumnRef(n), n) for n in original_order]
                    )
            return HashJoin(left, right, left_keys, right_keys, join_type=join.kind)
        if join.kind != "inner":
            raise PlanError("LEFT JOIN requires an equality condition")
        return NestedLoopJoin(left, right, join.condition)

    # -- projection / aggregation / prediction -----------------------------

    def _plan_projection(self, stmt: Select, source: Operator) -> Operator:
        items: list[tuple[Expression, str]] = []
        for i, item in enumerate(stmt.items):
            if isinstance(item.expr, Star):
                for name in source.schema.names:
                    items.append((ColumnRef(name), name.split(".")[-1]))
            else:
                assert isinstance(item.expr, Expression)
                items.append((item.expr, _output_name(item, i)))
        return Project(source, items)

    def _plan_aggregate(self, stmt: Select, source: Operator) -> Operator:
        group_by: list[tuple[Expression, str]] = []
        specs: list[AggregateSpec] = []
        output_order: list[str] = []
        for i, item in enumerate(stmt.items):
            name = _output_name(item, i)
            if isinstance(item.expr, AggregateCall):
                specs.append(AggregateSpec(item.expr.func, item.expr.arg, name))
            elif isinstance(item.expr, Expression):
                if not any(item.expr == g for g in stmt.group_by):
                    raise PlanError(
                        f"select item {name!r} is neither aggregated nor in "
                        "GROUP BY"
                    )
                group_by.append((item.expr, name))
            else:
                raise PlanError("SELECT * cannot be combined with aggregation")
            output_order.append(name)
        # Group-by expressions that are not selected still shape the groups.
        selected = {name for __, name in group_by}
        for g_expr in stmt.group_by:
            if not any(g_expr == expr for expr, __ in group_by):
                hidden = f"__group_{len(group_by)}"
                group_by.append((g_expr, hidden))
        agg = Aggregate(source, group_by, specs)
        if list(agg.schema.names) != output_order:
            return Project(agg, [(ColumnRef(n), n) for n in output_order])
        return agg

    def _plan_predict(self, stmt: Select, source: Operator) -> Operator:
        if self._predict_fn is None:
            raise PlanError("this session has no PREDICT executor configured")
        schema = source.schema
        plain: list[tuple[int, Expression, str]] = []  # (output slot, expr, name)
        predicts: list[tuple[int, PredictCall, str]] = []
        slot = 0
        output_columns: list[Column] = []
        for i, item in enumerate(stmt.items):
            name = _output_name(item, i)
            if isinstance(item.expr, Star):
                raise PlanError("SELECT * cannot be combined with PREDICT")
            if isinstance(item.expr, PredictCall):
                if self._has_model and not self._has_model(item.expr.model):
                    raise BindError(f"no model named {item.expr.model!r}")
                predicts.append((slot, item.expr, name))
                ctype = (
                    ColumnType.INT
                    if item.expr.proba_class is None
                    else ColumnType.DOUBLE
                )
                output_columns.append(Column(name, ctype))
            else:
                assert isinstance(item.expr, Expression)
                plain.append((slot, item.expr, name))
                bound_probe = item.expr.bind(schema)
                output_columns.append(Column(name, bound_probe.ctype))
            slot += 1
        plain_bound = [(s, expr.bind(schema)) for s, expr, __ in plain]
        predict_bound = [
            (
                s,
                call.model,
                [arg.bind(schema) for arg in call.args],
                call.proba_class,
            )
            for s, call, __ in predicts
        ]
        width = slot
        predict_fn = self._predict_fn

        def predict_udf(batch: Batch) -> Batch:
            columns: list = [None] * width
            for s, bound in plain_bound:
                columns[s] = bound.eval_batch(batch)
            for s, model_name, args, proba_class in predict_bound:
                features = np.empty((len(batch), len(args)))
                for j, arg in enumerate(args):
                    features[:, j] = arg.eval_batch(batch)  # NULL becomes NaN
                outputs = predict_fn(model_name, features, proba_class)
                dtype = np.float64 if proba_class is not None else np.int64
                columns[s] = np.asarray(outputs).astype(dtype, copy=False)
            return Batch(len(batch), columns)

        model_names = ", ".join(call.model for __, call, __n in predicts)
        return MapBatches(
            source,
            predict_udf,
            Schema(output_columns),
            batch_size=self._batch_size,
            label=f"predict({model_names})",
        )


def predict_models(stmt: Select) -> list[str]:
    """The model names a SELECT invokes through PREDICT, in select order.

    Used by EXPLAIN/EXPLAIN ANALYZE to attach each inference plan (and
    its per-stage audit) to the relational plan report.
    """
    return [
        item.expr.model
        for item in stmt.items
        if isinstance(item.expr, PredictCall)
    ]


def _output_name(item: SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ColumnRef):
        return expr.name.split(".")[-1].lower()
    if isinstance(expr, AggregateCall):
        return expr.func.lower()
    if isinstance(expr, PredictCall):
        return "prediction"
    return f"col{index}"


def _equi_keys(
    condition: Expression, left_schema: Schema, right_schema: Schema
) -> tuple[list[Expression], list[Expression]] | None:
    """Extract hash-join keys from a conjunction of column equalities."""
    conjuncts = _flatten_and(condition)
    left_keys: list[Expression] = []
    right_keys: list[Expression] = []
    for conjunct in conjuncts:
        if not (
            isinstance(conjunct, Comparison)
            and conjunct.op in ("=", "==")
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            return None
        sides = []
        for ref in (conjunct.left, conjunct.right):
            if _binds(ref, left_schema):
                sides.append("left")
            elif _binds(ref, right_schema):
                sides.append("right")
            else:
                return None
        if sides == ["left", "right"]:
            left_keys.append(conjunct.left)
            right_keys.append(conjunct.right)
        elif sides == ["right", "left"]:
            left_keys.append(conjunct.right)
            right_keys.append(conjunct.left)
        else:
            return None
    return left_keys, right_keys


def _estimated_rows(op: Operator) -> int | None:
    """Catalog cardinality for base-table scans; None when unknown."""
    estimate = getattr(op, "estimated_rows", None)
    return int(estimate) if estimate is not None else None


def _keys_bind(
    order_by: list[tuple[Expression, bool]], schema: Schema
) -> bool:
    try:
        for expr, __ in order_by:
            expr.bind(schema)
        return True
    except BindError:
        return False


def _flatten_and(expr: Expression) -> list[Expression]:
    if isinstance(expr, LogicalOp) and expr.op.upper() == "AND":
        return _flatten_and(expr.left) + _flatten_and(expr.right)
    return [expr]


def _binds(ref: ColumnRef, schema: Schema) -> bool:
    try:
        ref.bind(schema)
        return True
    except BindError:
        return False
