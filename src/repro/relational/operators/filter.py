"""Selection."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ...errors import PlanError
from ..batch import Batch
from ..expressions import BoundExpression, Expression
from ..schema import ColumnType
from .base import Operator


class Filter(Operator):
    """Keep rows whose predicate evaluates to true (NULL drops the row).

    The predicate runs column-native: a comparison (or AND / OR / NOT of
    comparisons) over numpy columns is one mask per batch; anything else
    is evaluated row by row (see :class:`BoundExpression`'s kernel).
    """

    def __init__(self, child: Operator, predicate: Expression | BoundExpression):
        self._child = child
        self._schema = child.schema
        if isinstance(predicate, Expression):
            bound = predicate.bind(child.schema)
        else:
            bound = predicate
        if bound.ctype is not ColumnType.BOOL:
            raise PlanError(
                f"filter predicate must be boolean, got {bound.ctype.value}"
            )
        self._predicate = bound

    def batches(self) -> Iterator[Batch]:
        predicate = self._predicate.eval_batch
        for batch in self._child.batches():
            keep = predicate(batch)
            if not isinstance(keep, np.ndarray) or keep.dtype != bool:
                keep = np.fromiter(keep, dtype=bool, count=len(batch))
            if keep.all():
                yield batch
            elif keep.any():
                yield batch.take(keep)

    def describe(self) -> str:
        return f"Filter({self._predicate.name})"

    def children(self) -> tuple[Operator, ...]:
        return (self._child,)
