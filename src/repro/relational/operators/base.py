"""Operator base class and small helpers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from ..batch import Batch
from ..schema import Schema

Row = tuple

#: Rows per batch when :meth:`Operator.batches` adapts a row-at-a-time
#: operator.  Small, because those rows may carry tensor blocks that the
#: row stream would otherwise hand on one at a time.
ADAPTER_BATCH_ROWS = 64


class Operator:
    """A physical operator producing a stream of tuples.

    Subclasses implement one of :meth:`rows` (a generator of tuples) or
    :meth:`batches` (a generator of :class:`~repro.relational.batch.Batch`)
    and set ``_schema`` in their constructor; the base class derives the
    other.  Operators are restartable: iterating twice replays the
    computation (children are re-iterated).
    """

    _schema: Schema

    @property
    def schema(self) -> Schema:
        return self._schema

    def rows(self) -> Iterator[Row]:
        for batch in self.batches():
            yield from batch.rows()

    def batches(self) -> Iterator[Batch]:
        """The output as non-empty batches, in row order."""
        rows = self.rows()
        while chunk := list(islice(rows, ADAPTER_BATCH_ROWS)):
            yield Batch(len(chunk), rows=chunk)

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def explain(self, indent: int = 0) -> str:
        """Human-readable plan tree."""
        pad = "  " * indent
        lines = [pad + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__

    def children(self) -> tuple["Operator", ...]:
        return ()


@dataclass
class MaterializedResult:
    """A fully evaluated operator output."""

    schema: Schema
    rows: list[Row]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def column(self, name: str) -> list[object]:
        idx = self.schema.index_of(name)
        return [row[idx] for row in self.rows]


def collect(op: Operator) -> MaterializedResult:
    """Drain an operator into a materialized result."""
    return MaterializedResult(op.schema, list(op))
