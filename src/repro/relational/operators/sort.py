"""Sorting: in-memory for small inputs, external merge sort beyond a
configurable row budget (runs spill to temporary files, then k-way merge),
so ORDER BY obeys the same bounded-memory discipline as the rest of the
engine."""

from __future__ import annotations

import heapq
import pickle
import tempfile
from dataclasses import dataclass
from typing import Iterator, Sequence

from ...errors import ExecutionError
from ..expressions import BoundExpression, Expression
from .base import Operator, Row


@dataclass
class SortKey:
    """One ORDER BY term."""

    expr: Expression | BoundExpression
    descending: bool = False


class Sort(Operator):
    """Stable multi-key sort; NULLs sort last (first when descending).

    Inputs larger than ``max_rows_in_memory`` are sorted externally:
    sorted runs of that size spill to a temp file and a k-way merge
    streams the result.
    """

    DEFAULT_MAX_ROWS = 1_000_000

    def __init__(
        self,
        child: Operator,
        keys: Sequence[SortKey],
        max_rows_in_memory: int | None = None,
    ):
        self._child = child
        self._schema = child.schema
        self._keys = [
            (
                key.expr.bind(child.schema)
                if isinstance(key.expr, Expression)
                else key.expr,
                key.descending,
            )
            for key in keys
        ]
        self._max_rows = (
            max_rows_in_memory
            if max_rows_in_memory is not None
            else self.DEFAULT_MAX_ROWS
        )

    def _sort_key(self, row: Row) -> tuple:
        """A single composite key implementing per-key DESC and NULL order."""
        parts = []
        for bound, descending in self._keys:
            value = bound.eval(row)
            rank, key = _null_aware(value)
            if descending:
                parts.append((-rank, _Reversed(key)))
            else:
                parts.append((rank, key))
        return tuple(parts)

    def _unordered(self, exc: TypeError) -> ExecutionError:
        """The error for key values that do not compare (a mixed-type column)."""
        keys = ", ".join(bound.name for bound, __ in self._keys)
        return ExecutionError(f"cannot sort by {keys}: {exc}")

    def rows(self) -> Iterator[Row]:
        source = iter(self._child)
        first_run: list[Row] = []
        for row in source:
            first_run.append(row)
            if len(first_run) > self._max_rows:
                return self._external_sort(first_run, source)
        self._sort(first_run)
        return iter(first_run)

    def _sort(self, run: list[Row]) -> None:
        try:
            run.sort(key=self._sort_key)
        except TypeError as exc:
            raise self._unordered(exc) from None

    def _external_sort(self, head: list[Row], rest: Iterator[Row]) -> Iterator[Row]:
        """Spill sorted runs to a temp file, then merge them."""
        spill = tempfile.TemporaryFile()
        runs: list[tuple[int, int]] = []  # (offset, length)

        def flush(run: list[Row]) -> None:
            self._sort(run)
            payload = pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL)
            spill.seek(0, 2)
            runs.append((spill.tell(), len(payload)))
            spill.write(payload)

        run = head
        for row in rest:
            run.append(row)
            if len(run) >= self._max_rows:
                flush(run)
                run = []
        if run:
            flush(run)

        def read_run(offset: int, length: int) -> Iterator[Row]:
            spill.seek(offset)
            yield from pickle.loads(spill.read(length))

        try:
            streams = [read_run(offset, length) for offset, length in runs]
            yield from heapq.merge(*streams, key=self._sort_key)
        except TypeError as exc:
            raise self._unordered(exc) from None
        finally:
            spill.close()

    def describe(self) -> str:
        keys = ", ".join(
            f"{bound.name}{' DESC' if desc else ''}" for bound, desc in self._keys
        )
        return f"Sort({keys})"

    def children(self) -> tuple[Operator, ...]:
        return (self._child,)


class _Reversed:
    """Inverts comparison order for DESC keys inside composite sort keys."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


def _null_aware(value: object) -> tuple[int, object]:
    if value is None:
        return (1, 0)
    return (0, value)
