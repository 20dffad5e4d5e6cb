"""Expression trees evaluated over rows.

Expressions are built unbound (referring to columns by name), then *bound*
against a :class:`~repro.relational.schema.Schema`, which resolves names to
tuple positions and infers the result type.  Binding returns a
:class:`BoundExpression` whose ``eval`` closure works on plain tuples, so the
hot loop of Filter/Project does no name lookups.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from ..errors import BindError
from .batch import Batch, ColumnValues
from .schema import ColumnType, Schema


@dataclass(frozen=True)
class BoundExpression:
    """An expression compiled against a schema: a closure plus a result type.

    ``column`` is the input position when the expression is a bare column
    reference, so batch operators can take the column instead of
    evaluating row by row.
    """

    eval: Callable[[Sequence[object]], object]
    ctype: ColumnType
    name: str = "expr"
    column: int | None = None

    def eval_batch(self, batch: Batch) -> ColumnValues:
        """This expression's values over ``batch``, as one column."""
        if self.column is not None:
            return batch.column(self.column)
        return list(map(self.eval, batch.rows()))


class Expression:
    """Base class for unbound expressions."""

    def bind(self, schema: Schema) -> BoundExpression:
        raise NotImplementedError

    # Convenience constructors so tests and planners can compose trees
    # without importing every node class.
    def __add__(self, other: "Expression") -> "BinaryOp":
        return BinaryOp("+", self, other)

    def __sub__(self, other: "Expression") -> "BinaryOp":
        return BinaryOp("-", self, other)

    def __mul__(self, other: "Expression") -> "BinaryOp":
        return BinaryOp("*", self, other)

    def __truediv__(self, other: "Expression") -> "BinaryOp":
        return BinaryOp("/", self, other)

    def eq(self, other: "Expression") -> "Comparison":
        return Comparison("=", self, other)

    def lt(self, other: "Expression") -> "Comparison":
        return Comparison("<", self, other)

    def gt(self, other: "Expression") -> "Comparison":
        return Comparison(">", self, other)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column by (possibly qualified) name."""

    name: str

    def bind(self, schema: Schema) -> BoundExpression:
        return schema.bound(self.name, self._resolve)

    def _resolve(self, schema: Schema) -> BoundExpression:
        name = self.name.lower()
        if schema.has_column(name):
            idx = schema.index_of(name)
        else:
            # Allow an unqualified name to match a uniquely-qualified column
            # (e.g. "id" matching "t.id" after a join)...
            suffix = "." + name
            matches = [i for i, n in enumerate(schema.names) if n.endswith(suffix)]
            if len(matches) == 1:
                idx = matches[0]
            elif len(matches) > 1:
                raise BindError(f"ambiguous column reference {self.name!r}")
            elif "." in name and schema.has_column(name.rsplit(".", 1)[1]):
                # ...and a qualified name to match its unqualified survivor
                # after a projection stripped the qualifier.
                idx = schema.index_of(name.rsplit(".", 1)[1])
            else:
                raise BindError(
                    f"no column {self.name!r}; available: {list(schema.names)}"
                )
        ctype = schema[idx].ctype
        return BoundExpression(operator.itemgetter(idx), ctype, name=name, column=idx)


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: object

    def bind(self, schema: Schema) -> BoundExpression:
        value = self.value
        if isinstance(value, bool):
            ctype = ColumnType.BOOL
        elif isinstance(value, int):
            ctype = ColumnType.INT
        elif isinstance(value, float):
            ctype = ColumnType.DOUBLE
        elif isinstance(value, str):
            ctype = ColumnType.TEXT
        elif isinstance(value, (bytes, bytearray)):
            ctype = ColumnType.BLOB
        elif value is None:
            ctype = ColumnType.TEXT  # NULL literal; type refined by context
        else:
            raise BindError(f"unsupported literal {value!r}")
        return BoundExpression(lambda row: value, ctype, name=repr(value))


_ARITH_OPS: dict[str, Callable[[float, float], float]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}

_CMP_OPS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _null_safe(fn: Callable, *args: Callable) -> Callable[[Sequence[object]], object]:
    """Wrap an n-ary operation so that any NULL input yields NULL."""

    def eval_row(row: Sequence[object]) -> object:
        values = [arg(row) for arg in args]
        if any(v is None for v in values):
            return None
        return fn(*values)

    return eval_row


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic over two numeric expressions."""

    op: str
    left: Expression
    right: Expression

    def bind(self, schema: Schema) -> BoundExpression:
        if self.op not in _ARITH_OPS:
            raise BindError(f"unknown arithmetic operator {self.op!r}")
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        for side in (left, right):
            if not side.ctype.is_numeric:
                raise BindError(
                    f"operator {self.op!r} requires numeric operands, "
                    f"got {side.ctype.value} ({side.name})"
                )
        if self.op == "/":
            ctype = ColumnType.DOUBLE
        elif left.ctype is ColumnType.INT and right.ctype is ColumnType.INT:
            ctype = ColumnType.INT
        else:
            ctype = ColumnType.DOUBLE
        fn = _ARITH_OPS[self.op]
        name = f"({left.name} {self.op} {right.name})"
        return BoundExpression(_null_safe(fn, left.eval, right.eval), ctype, name)


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary minus or logical NOT."""

    op: str
    operand: Expression

    def bind(self, schema: Schema) -> BoundExpression:
        inner = self.operand.bind(schema)
        if self.op == "-":
            if not inner.ctype.is_numeric:
                raise BindError("unary minus requires a numeric operand")
            return BoundExpression(
                _null_safe(operator.neg, inner.eval), inner.ctype, f"(-{inner.name})"
            )
        if self.op.upper() == "NOT":
            return BoundExpression(
                _null_safe(operator.not_, inner.eval),
                ColumnType.BOOL,
                f"(NOT {inner.name})",
            )
        raise BindError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class Comparison(Expression):
    """A comparison producing a BOOL."""

    op: str
    left: Expression
    right: Expression

    def bind(self, schema: Schema) -> BoundExpression:
        if self.op not in _CMP_OPS:
            raise BindError(f"unknown comparison operator {self.op!r}")
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        numeric_pair = left.ctype.is_numeric and right.ctype.is_numeric
        if left.ctype is not right.ctype and not numeric_pair:
            raise BindError(
                f"cannot compare {left.ctype.value} with {right.ctype.value}"
            )
        fn = _CMP_OPS[self.op]
        name = f"({left.name} {self.op} {right.name})"
        return BoundExpression(
            _null_safe(fn, left.eval, right.eval), ColumnType.BOOL, name
        )


@dataclass(frozen=True)
class LogicalOp(Expression):
    """AND / OR over boolean expressions (NULL-propagating)."""

    op: str
    left: Expression
    right: Expression

    def bind(self, schema: Schema) -> BoundExpression:
        op = self.op.upper()
        left = self.left.bind(schema)
        right = self.right.bind(schema)

        if op == "AND":

            def eval_row(row: Sequence[object]) -> object:
                lval = left.eval(row)
                if lval is False:
                    return False
                rval = right.eval(row)
                if rval is False:
                    return False
                if lval is None or rval is None:
                    return None
                return bool(lval) and bool(rval)

        elif op == "OR":

            def eval_row(row: Sequence[object]) -> object:
                lval = left.eval(row)
                if lval is True:
                    return True
                rval = right.eval(row)
                if rval is True:
                    return True
                if lval is None or rval is None:
                    return None
                return bool(lval) or bool(rval)

        else:
            raise BindError(f"unknown logical operator {self.op!r}")
        name = f"({left.name} {op} {right.name})"
        return BoundExpression(eval_row, ColumnType.BOOL, name)


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS NULL`` / ``expr IS NOT NULL`` (never yields NULL itself)."""

    operand: Expression
    negated: bool = False

    def bind(self, schema: Schema) -> BoundExpression:
        inner = self.operand.bind(schema)
        negated = self.negated

        def eval_row(row: Sequence[object]) -> object:
            is_null = inner.eval(row) is None
            return not is_null if negated else is_null

        name = f"({inner.name} IS {'NOT ' if negated else ''}NULL)"
        return BoundExpression(eval_row, ColumnType.BOOL, name)


@dataclass(frozen=True)
class Like(Expression):
    """SQL ``LIKE`` with ``%`` (any run) and ``_`` (single char) wildcards."""

    operand: Expression
    pattern: str
    negated: bool = False

    def bind(self, schema: Schema) -> BoundExpression:
        import re

        inner = self.operand.bind(schema)
        if inner.ctype is not ColumnType.TEXT:
            raise BindError("LIKE requires a TEXT operand")
        regex = re.compile(
            "^" + re.escape(self.pattern).replace("%", ".*").replace("_", ".") + "$",
            re.DOTALL,
        )
        negated = self.negated

        def eval_row(row: Sequence[object]) -> object:
            value = inner.eval(row)
            if value is None:
                return None
            matched = regex.match(value) is not None
            return not matched if negated else matched

        name = f"({inner.name} {'NOT ' if negated else ''}LIKE {self.pattern!r})"
        return BoundExpression(eval_row, ColumnType.BOOL, name)


@dataclass(frozen=True)
class CaseWhen(Expression):
    """``CASE WHEN cond THEN value [...] [ELSE value] END``.

    Branch result types must agree (numeric mixes widen to DOUBLE); a
    missing ELSE yields NULL when no branch matches.
    """

    branches: tuple[tuple[Expression, Expression], ...]
    default: Expression | None = None

    def bind(self, schema: Schema) -> BoundExpression:
        if not self.branches:
            raise BindError("CASE requires at least one WHEN branch")
        bound_branches = []
        result_types = []
        for condition, value in self.branches:
            bound_cond = condition.bind(schema)
            if bound_cond.ctype is not ColumnType.BOOL:
                raise BindError("CASE conditions must be boolean")
            bound_value = value.bind(schema)
            bound_branches.append((bound_cond, bound_value))
            result_types.append(bound_value.ctype)
        bound_default = self.default.bind(schema) if self.default else None
        if bound_default is not None:
            result_types.append(bound_default.ctype)
        distinct_types = set(result_types)
        if len(distinct_types) == 1:
            ctype = result_types[0]
        elif all(t.is_numeric for t in distinct_types):
            ctype = ColumnType.DOUBLE
        else:
            raise BindError(
                f"CASE branches have incompatible types: "
                f"{sorted(t.value for t in distinct_types)}"
            )

        widen = ctype is ColumnType.DOUBLE and len(distinct_types) > 1

        def eval_row(row: Sequence[object]) -> object:
            for bound_cond, bound_value in bound_branches:
                if bound_cond.eval(row):
                    result = bound_value.eval(row)
                    break
            else:
                result = (
                    bound_default.eval(row) if bound_default is not None else None
                )
            if widen and result is not None:
                return float(result)
            return result

        parts = " ".join(
            f"WHEN {c.name} THEN {v.name}" for c, v in bound_branches
        )
        suffix = f" ELSE {bound_default.name}" if bound_default else ""
        return BoundExpression(eval_row, ctype, f"(CASE {parts}{suffix} END)")


_SCALAR_FUNCTIONS: dict[str, tuple[Callable, ColumnType | None]] = {
    # name -> (implementation, fixed result type or None meaning "numeric")
    "ABS": (abs, None),
    "SQRT": (math.sqrt, ColumnType.DOUBLE),
    "EXP": (math.exp, ColumnType.DOUBLE),
    "LN": (math.log, ColumnType.DOUBLE),
    "FLOOR": (lambda x: int(math.floor(x)), ColumnType.INT),
    "CEIL": (lambda x: int(math.ceil(x)), ColumnType.INT),
    "ROUND": (lambda x: float(round(x)), ColumnType.DOUBLE),
    "SIGN": (lambda x: (x > 0) - (x < 0), ColumnType.INT),
    "LOWER": (str.lower, ColumnType.TEXT),
    "UPPER": (str.upper, ColumnType.TEXT),
    "LENGTH": (len, ColumnType.INT),
}


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar function call (``PREDICT`` is handled by the planner, not here)."""

    name: str
    args: tuple[Expression, ...]

    def bind(self, schema: Schema) -> BoundExpression:
        fname = self.name.upper()
        if fname not in _SCALAR_FUNCTIONS:
            raise BindError(f"unknown scalar function {self.name!r}")
        fn, fixed_type = _SCALAR_FUNCTIONS[fname]
        if len(self.args) != 1:
            raise BindError(f"{fname} takes exactly one argument")
        arg = self.args[0].bind(schema)
        ctype = fixed_type if fixed_type is not None else arg.ctype
        name = f"{fname}({arg.name})"
        return BoundExpression(_null_safe(fn, arg.eval), ctype, name)
