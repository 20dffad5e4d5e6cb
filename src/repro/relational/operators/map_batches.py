"""Batch UDF application.

``MapBatches`` is the one UDF operator: PREDICT, the block multiply and
every per-block stage of the relation-centric pipelines run through it.
It hands each batch to a Python callable (the UDF) and streams the batches
the callable returns, so a model UDF runs vectorised numpy over many rows
at once instead of per-tuple Python.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ...errors import PlanError
from ..batch import Batch, rechunk
from ..schema import Schema
from .base import Operator

BatchUdf = Callable[[Batch], Batch]


class MapBatches(Operator):
    """Apply a batch UDF: ``udf(Batch) -> Batch``.

    The child's batches are re-cut to exactly ``batch_size`` rows (the last
    may be shorter) before the UDF sees them.
    """

    def __init__(
        self,
        child: Operator,
        udf: BatchUdf,
        output_schema: Schema,
        batch_size: int = 1024,
        label: str = "udf",
    ):
        if batch_size < 1:
            raise PlanError("batch_size must be at least 1")
        self._child = child
        self._udf = udf
        self._schema = output_schema
        self._batch_size = batch_size
        self._label = label

    def batches(self) -> Iterator[Batch]:
        for batch in rechunk(self._child.batches(), self._batch_size):
            yield self._udf(batch)

    def describe(self) -> str:
        # Plans have always printed a UDF node as ``MapRows``; EXPLAIN keeps it.
        return f"MapRows({self._label}, batch={self._batch_size})"

    def children(self) -> tuple[Operator, ...]:
        return (self._child,)
