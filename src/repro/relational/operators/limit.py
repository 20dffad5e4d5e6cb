"""LIMIT / OFFSET."""

from __future__ import annotations

import itertools
from typing import Iterator

from ...errors import PlanError
from ..batch import Batch
from .base import Operator, Row


class Limit(Operator):
    """Pass through at most ``limit`` rows after skipping ``offset``."""

    def __init__(self, child: Operator, limit: int, offset: int = 0):
        if limit < 0 or offset < 0:
            raise PlanError("LIMIT and OFFSET must be non-negative")
        self._child = child
        self._schema = child.schema
        self._limit = limit
        self._offset = offset

    def rows(self) -> Iterator[Row]:
        # Row by row, so a row consumer pulls no row past the limit.
        return itertools.islice(
            iter(self._child), self._offset, self._offset + self._limit
        )

    def batches(self) -> Iterator[Batch]:
        skip, left = self._offset, self._limit
        if not left:
            return
        for batch in self._child.batches():
            if skip >= batch.size:
                skip -= batch.size
                continue
            stop = min(batch.size, skip + left)
            yield batch if (skip, stop) == (0, batch.size) else batch.slice(skip, stop)
            left -= stop - skip
            if not left:
                return
            skip = 0

    def describe(self) -> str:
        suffix = f" OFFSET {self._offset}" if self._offset else ""
        return f"Limit({self._limit}{suffix})"

    def children(self) -> tuple[Operator, ...]:
        return (self._child,)
