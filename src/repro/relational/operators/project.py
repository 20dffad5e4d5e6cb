"""Projection (with computed expressions and renaming)."""

from __future__ import annotations

from typing import Iterator, Sequence

from ..batch import Batch
from ..expressions import BoundExpression, Expression
from ..schema import Column, Schema
from .base import Operator


class Project(Operator):
    """Evaluate a list of (expression, output name) pairs per row.

    A bare column reference passes its input column through as is; other
    expressions are evaluated row by row.
    """

    def __init__(
        self,
        child: Operator,
        items: Sequence[tuple[Expression | BoundExpression, str]],
    ):
        self._child = child
        bound: list[tuple[BoundExpression, str]] = []
        for expr, name in items:
            if isinstance(expr, Expression):
                bound.append((expr.bind(child.schema), name))
            else:
                bound.append((expr, name))
        self._items = bound
        self._schema = Schema(
            Column(name, expr.ctype) for expr, name in bound
        )

    def batches(self) -> Iterator[Batch]:
        exprs = [expr for expr, __ in self._items]
        for batch in self._child.batches():
            yield Batch(len(batch), [e.eval_batch(batch) for e in exprs])

    def describe(self) -> str:
        cols = ", ".join(f"{expr.name} AS {name}" for expr, name in self._items)
        return f"Project({cols})"

    def children(self) -> tuple[Operator, ...]:
        return (self._child,)
