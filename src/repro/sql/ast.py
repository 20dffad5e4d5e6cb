"""SQL abstract syntax.

Scalar expressions reuse :mod:`repro.relational.expressions` directly (the
parser builds :class:`~repro.relational.expressions.Expression` trees);
this module adds only the query-level nodes and the two call forms the
relational layer does not know about: aggregates and ``PREDICT``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..relational.expressions import Expression
from ..relational.schema import ColumnType


class Statement:
    """Base class for parsed statements."""


@dataclass
class CreateTable(Statement):
    name: str
    columns: list[tuple[str, ColumnType]]


@dataclass
class DropTable(Statement):
    name: str


@dataclass
class Insert(Statement):
    table: str
    rows: list[list[object]]  # literal values only


@dataclass
class InsertSelect(Statement):
    """``INSERT INTO t SELECT ...``."""

    table: str
    query: "Select"


@dataclass
class CreateTableAs(Statement):
    """``CREATE TABLE t AS SELECT ...``."""

    name: str
    query: "Select"


@dataclass
class Delete(Statement):
    """``DELETE FROM t [WHERE ...]``."""

    table: str
    where: Expression | None = None


@dataclass
class Update(Statement):
    """``UPDATE t SET col = expr [, ...] [WHERE ...]``."""

    table: str
    assignments: list[tuple[str, Expression]]
    where: Expression | None = None


@dataclass
class Star:
    """``*`` in a select list."""


@dataclass
class AggregateCall:
    """``SUM(expr)``, ``COUNT(*)``, etc."""

    func: str
    arg: Expression | None  # None means COUNT(*)


@dataclass
class PredictCall:
    """``PREDICT(model, features...)`` or
    ``PREDICT_PROBA(model, class_index, features...)``."""

    model: str
    args: list[Expression]
    proba_class: int | None = None  # None = argmax label


@dataclass
class SelectItem:
    expr: Expression | Star | AggregateCall | PredictCall
    alias: str | None = None


@dataclass
class TableRef:
    name: str
    alias: str | None = None


@dataclass
class Join:
    table: TableRef
    condition: Expression
    kind: str = "inner"  # "inner" or "left"


@dataclass
class Select(Statement):
    items: list[SelectItem]
    table: TableRef
    joins: list[Join] = field(default_factory=list)
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    order_by: list[tuple[Expression, bool]] = field(default_factory=list)  # (expr, desc)
    limit: int | None = None
    offset: int = 0
    distinct: bool = False
    having: Expression | None = None


@dataclass
class Explain(Statement):
    """``EXPLAIN <select>``, or ``EXPLAIN ANALYZE <select>``.

    ANALYZE executes the plan instrumented: the report annotates every
    relational operator with the rows it produced and its inclusive time,
    and every model inference stage with its representation, rows, wall
    time, and estimated vs actual peak memory (from the plan-quality
    audit).
    """

    query: Select
    analyze: bool = False


@dataclass
class DeployModel(Statement):
    """``DEPLOY MODEL m VERSION v [CANARY x%] [SHADOW]``.

    Drives the deployment state machine (:mod:`repro.lifecycle`): a bare
    DEPLOY promotes the version immediately (one atomic snapshot swap);
    ``CANARY x%`` routes x% of fingerprint-hashed traffic to the new
    version first; ``SHADOW`` mirrors traffic to it and compares outputs
    before any client sees them.  ``SHADOW`` and ``CANARY`` compose:
    shadow runs first, then the canary stage.
    """

    model: str
    version: str
    canary_percent: float | None = None
    shadow: bool = False


@dataclass
class RollbackModel(Statement):
    """``ROLLBACK MODEL m``: cancel the in-flight deployment (canary or
    shadow) or revert the last promotion, re-pointing traffic to the
    prior version in one snapshot swap."""

    model: str


@dataclass
class UnionAll(Statement):
    """``<select> UNION ALL <select> [...]`` (bag semantics)."""

    queries: list[Select]
