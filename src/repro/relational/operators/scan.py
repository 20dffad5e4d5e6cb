"""Leaf operators: sequential scans over heaps, literals, and generators."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from ...errors import SchemaError
from ...storage.catalog import TableInfo
from ..batch import Batch
from ..schema import Schema
from .base import Operator, Row


class SeqScan(Operator):
    """Full scan of a heap table through the buffer pool."""

    def __init__(self, table: TableInfo, alias: str | None = None):
        self._table = table
        self._schema = table.schema.qualified(alias)
        self._alias = alias

    @property
    def table(self) -> TableInfo:
        return self._table

    @property
    def estimated_rows(self) -> int:
        return self._table.row_count

    def batches(self) -> Iterator[Batch]:
        return self._table.heap.scan_batches()

    def scan_into(
        self, place: Callable[[tuple], np.ndarray], pages: list | None = None
    ) -> Iterator[tuple]:
        """Each row's leading values, once its trailing BLOB is copied into
        ``place(them)`` (see :meth:`~repro.storage.heap.HeapFile.scan_into`)."""
        return self._table.heap.scan_into(place, pages)

    def describe(self) -> str:
        suffix = f" AS {self._alias}" if self._alias else ""
        return f"SeqScan({self._table.name}{suffix})"


class ValuesScan(Operator):
    """Scan over an in-memory list of rows (used for VALUES and tests)."""

    def __init__(self, schema: Schema, rows: Iterable[Row]):
        self._schema = schema
        self._rows = list(rows)
        for row in self._rows:
            if len(row) != len(schema):
                raise SchemaError(
                    f"VALUES row arity {len(row)} does not match schema "
                    f"arity {len(schema)}"
                )

    def rows(self) -> Iterator[Row]:
        return iter(self._rows)

    def describe(self) -> str:
        return f"ValuesScan({len(self._rows)} rows)"


class GeneratorScan(Operator):
    """Scan whose rows come from a restartable generator factory.

    The relation-centric engine uses this to stream tensor blocks out of
    blocked matrices without materializing them first; the SQL planner
    scans the system relations (``FROM sys.<name>``) with it.
    """

    def __init__(self, schema: Schema, factory: Callable[[], Iterator[Row]], label: str = ""):
        self._schema = schema
        self._factory = factory
        self._label = label

    def rows(self) -> Iterator[Row]:
        return self._factory()

    def describe(self) -> str:
        return f"GeneratorScan({self._label})" if self._label else "GeneratorScan"
