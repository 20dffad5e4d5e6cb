"""Row-level UDF application.

``MapRows`` is the general escape hatch used by the UDF-centric engine: it
buffers rows into batches, hands each batch to a Python callable (the UDF),
and streams the callable's output rows.  The batch interface is what allows
a model UDF to run vectorised numpy over many rows at once instead of
per-tuple Python.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from ...errors import PlanError
from ..batch import Batch, rechunk
from ..schema import Schema
from .base import Operator, Row

BatchUdf = Callable[[list[Row]], Iterable[Row]]


class MapRows(Operator):
    """Apply a batch UDF: ``list[in_row] -> iterable[out_row]``."""

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

    def rows(self) -> Iterator[Row]:
        batch: list[Row] = []
        for row in self._child:
            batch.append(row)
            if len(batch) >= self._batch_size:
                yield from self._udf(batch)
                batch = []
        if batch:
            yield from self._udf(batch)

    def describe(self) -> str:
        return f"MapRows({self._label}, batch={self._batch_size})"

    def children(self) -> tuple[Operator, ...]:
        return (self._child,)


class MapBatches(MapRows):
    """``MapRows`` over column batches: ``udf(Batch) -> Batch``.

    The child's batches are re-cut to exactly ``batch_size`` rows (the last
    may be shorter), so the UDF sees the batch sizes ``MapRows`` would give
    it, without a tuple per input row.
    """

    rows = Operator.rows  # derived from batches(), not MapRows' row loop

    def batches(self) -> Iterator[Batch]:
        for batch in rechunk(self._child.batches(), self._batch_size):
            yield self._udf(batch)
