"""Render parsed statements back to SQL text.

The inverse of :func:`repro.sql.parser.parse`, built so that

    parse(unparse(stmt)) == stmt

holds structurally for every statement the parser can produce (all AST
nodes and expression nodes are dataclasses with value equality).  The
property-based round-trip fuzz suite leans on this to prove the grammar
has no silent parse/print drift.

Conventions that make the fixed point work:

* Every compound expression is parenthesized.  The parser unwraps
  ``( expr )`` to the inner node, so extra parentheses never change the
  tree, while precedence mistakes would.
* ``BETWEEN`` and ``IN`` are desugared *at parse time* (to AND/OR chains
  of comparisons), so the unparser never needs to print them: it prints
  the desugared form, which reparses to itself.
* Identifiers are emitted verbatim — the lexer lowercases them, so any
  AST produced by the parser already holds the canonical spelling.
* String literals escape embedded quotes by doubling (``''``), matching
  the lexer.
"""

from __future__ import annotations

from ..errors import SqlError
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
from .ast import (
    AggregateCall,
    CreateTable,
    CreateTableAs,
    Delete,
    DeployModel,
    DropTable,
    Explain,
    Insert,
    InsertSelect,
    Join,
    PredictCall,
    RollbackModel,
    Select,
    SelectItem,
    Star,
    Statement,
    TableRef,
    UnionAll,
    Update,
)

__all__ = ["unparse", "unparse_expression"]


def unparse(stmt: Statement) -> str:
    """One SQL statement as text; ``parse(unparse(s)) == s``."""
    if isinstance(stmt, Select):
        return _select(stmt)
    if isinstance(stmt, UnionAll):
        return " UNION ALL ".join(_select(q) for q in stmt.queries)
    if isinstance(stmt, Explain):
        analyze = "ANALYZE " if stmt.analyze else ""
        return f"EXPLAIN {analyze}{_select(stmt.query)}"
    if isinstance(stmt, CreateTable):
        columns = ", ".join(f"{name} {ctype.value}" for name, ctype in stmt.columns)
        return f"CREATE TABLE {stmt.name} ({columns})"
    if isinstance(stmt, CreateTableAs):
        return f"CREATE TABLE {stmt.name} AS {_select(stmt.query)}"
    if isinstance(stmt, DropTable):
        return f"DROP TABLE {stmt.name}"
    if isinstance(stmt, Insert):
        rows = ", ".join(
            "(" + ", ".join(_literal_value(v) for v in row) + ")"
            for row in stmt.rows
        )
        return f"INSERT INTO {stmt.table} VALUES {rows}"
    if isinstance(stmt, InsertSelect):
        return f"INSERT INTO {stmt.table} {_select(stmt.query)}"
    if isinstance(stmt, Delete):
        sql = f"DELETE FROM {stmt.table}"
        if stmt.where is not None:
            sql += f" WHERE {unparse_expression(stmt.where)}"
        return sql
    if isinstance(stmt, Update):
        sets = ", ".join(
            f"{col} = {unparse_expression(expr)}" for col, expr in stmt.assignments
        )
        sql = f"UPDATE {stmt.table} SET {sets}"
        if stmt.where is not None:
            sql += f" WHERE {unparse_expression(stmt.where)}"
        return sql
    if isinstance(stmt, DeployModel):
        sql = f"DEPLOY MODEL {stmt.model} VERSION {stmt.version}"
        if stmt.canary_percent is not None:
            sql += f" CANARY {stmt.canary_percent:g}%"
        if stmt.shadow:
            sql += " SHADOW"
        return sql
    if isinstance(stmt, RollbackModel):
        return f"ROLLBACK MODEL {stmt.model}"
    raise SqlError(f"cannot unparse statement type {type(stmt).__name__}")


def _select(stmt: Select) -> str:
    parts = ["SELECT"]
    if stmt.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_select_item(item) for item in stmt.items))
    parts.append(f"FROM {_table_ref(stmt.table)}")
    for join in stmt.joins:
        parts.append(_join(join))
    if stmt.where is not None:
        parts.append(f"WHERE {unparse_expression(stmt.where)}")
    if stmt.group_by:
        parts.append(
            "GROUP BY " + ", ".join(unparse_expression(e) for e in stmt.group_by)
        )
        if stmt.having is not None:
            parts.append(f"HAVING {unparse_expression(stmt.having)}")
    if stmt.order_by:
        keys = ", ".join(
            unparse_expression(expr) + (" DESC" if desc else " ASC")
            for expr, desc in stmt.order_by
        )
        parts.append(f"ORDER BY {keys}")
    if stmt.limit is not None:
        parts.append(f"LIMIT {stmt.limit}")
        if stmt.offset:
            parts.append(f"OFFSET {stmt.offset}")
    return " ".join(parts)


def _select_item(item: SelectItem) -> str:
    expr = item.expr
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, AggregateCall):
        if expr.func == "COUNT_STAR":
            text = "COUNT(*)"
        else:
            assert expr.arg is not None
            text = f"{expr.func}({unparse_expression(expr.arg)})"
    elif isinstance(expr, PredictCall):
        args = "".join(f", {unparse_expression(a)}" for a in expr.args)
        if expr.proba_class is not None:
            text = f"PREDICT_PROBA({expr.model}, {expr.proba_class}{args})"
        else:
            text = f"PREDICT({expr.model}{args})"
    else:
        text = unparse_expression(expr)
    if item.alias is not None:
        text += f" AS {item.alias}"
    return text


def _table_ref(ref: TableRef) -> str:
    if ref.alias is not None:
        return f"{ref.name} AS {ref.alias}"
    return ref.name


def _join(join: Join) -> str:
    keyword = "LEFT JOIN" if join.kind == "left" else "JOIN"
    return (
        f"{keyword} {_table_ref(join.table)} "
        f"ON {unparse_expression(join.condition)}"
    )


def _literal_value(value: object) -> str:
    """A literal in INSERT ... VALUES position (negatives allowed here)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return _string(value)
    raise SqlError(f"cannot unparse literal {value!r}")


def _string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def unparse_expression(expr: Expression) -> str:
    """One scalar expression, conservatively parenthesized."""
    if isinstance(expr, Literal):
        value = expr.value
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, (int, float)):
            if value < 0:
                # "-5" reparses as UnaryOp("-", Literal(5)); keep negative
                # literals representable by printing that same form.
                return f"(-{repr(type(value)(-value))})"
            return repr(value)
        if isinstance(value, str):
            return _string(value)
        raise SqlError(f"cannot unparse literal {value!r}")
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, BinaryOp):
        return (
            f"({unparse_expression(expr.left)} {expr.op} "
            f"{unparse_expression(expr.right)})"
        )
    if isinstance(expr, Comparison):
        return (
            f"({unparse_expression(expr.left)} {expr.op} "
            f"{unparse_expression(expr.right)})"
        )
    if isinstance(expr, LogicalOp):
        return (
            f"({unparse_expression(expr.left)} {expr.op.upper()} "
            f"{unparse_expression(expr.right)})"
        )
    if isinstance(expr, UnaryOp):
        if expr.op.upper() == "NOT":
            return f"(NOT {unparse_expression(expr.operand)})"
        return f"({expr.op}{unparse_expression(expr.operand)})"
    if isinstance(expr, IsNull):
        middle = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"({unparse_expression(expr.operand)} {middle})"
    if isinstance(expr, Like):
        middle = "NOT LIKE" if expr.negated else "LIKE"
        return f"({unparse_expression(expr.operand)} {middle} {_string(expr.pattern)})"
    if isinstance(expr, CaseWhen):
        branches = " ".join(
            f"WHEN {unparse_expression(cond)} THEN {unparse_expression(value)}"
            for cond, value in expr.branches
        )
        default = (
            f" ELSE {unparse_expression(expr.default)}"
            if expr.default is not None
            else ""
        )
        return f"(CASE {branches}{default} END)"
    if isinstance(expr, FunctionCall):
        args = ", ".join(unparse_expression(a) for a in expr.args)
        return f"{expr.name}({args})"
    raise SqlError(f"cannot unparse expression type {type(expr).__name__}")
