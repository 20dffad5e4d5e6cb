"""Column batches: what operators hand each other through ``batches()``.

A :class:`Batch` is a run of rows of one relation, held by column, by row,
or both.  Either form is derived from the other on first use and kept, so a
consumer that wants tuples pays for them once and a consumer that wants a
column of a page the heap decoded with numpy gets the array itself.

A column is a numpy array, or a Python sequence where values came from
tuples (NULLs, computed expressions, rows of TEXT/BLOB tables).  A numpy
column's ``.tolist()`` yields exactly the Python values a row would hold.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

ColumnValues = Union[np.ndarray, Sequence[object]]


class Batch:
    """``size`` rows, stored column-wise, row-wise, or both."""

    __slots__ = ("size", "_columns", "_rows")

    def __init__(
        self,
        size: int,
        columns: list[ColumnValues] | None = None,
        rows: list[tuple] | None = None,
    ):
        self.size = size
        self._columns = columns
        self._rows = rows

    def __len__(self) -> int:
        return self.size

    @property
    def columns(self) -> list[ColumnValues]:
        if self._columns is None:
            self._columns = list(zip(*self._rows))
        return self._columns

    def column(self, index: int) -> ColumnValues:
        return self.columns[index]

    def rows(self) -> list[tuple]:
        if self._rows is None:
            values = [c.tolist() if isinstance(c, np.ndarray) else c for c in self._columns]
            self._rows = list(zip(*values)) if values else [()] * self.size
        return self._rows

    def take(self, mask: np.ndarray) -> "Batch":
        """The rows where the boolean ``mask`` is true, in order."""
        columns = rows = None
        if self._columns is not None:
            columns = [
                c[mask] if isinstance(c, np.ndarray) else list(compress(c, mask))
                for c in self._columns
            ]
        if self._rows is not None:
            rows = list(compress(self._rows, mask))
        return Batch(int(np.count_nonzero(mask)), columns, rows)

    def slice(self, start: int, stop: int) -> "Batch":
        columns = rows = None
        if self._columns is not None:
            columns = [c[start:stop] for c in self._columns]
        if self._rows is not None:
            rows = self._rows[start:stop]
        return Batch(stop - start, columns, rows)

    @staticmethod
    def pair(
        left: "Batch", left_idx: Sequence[int], right: "Batch", right_idx: Sequence[int]
    ) -> "Batch":
        """The rows ``left[left_idx[k]] + right[right_idx[k]]``, in order."""
        lrows, rrows = left.rows(), right.rows()
        rows = [lrows[i] + rrows[j] for i, j in zip(left_idx, right_idx)]
        return Batch(len(left_idx), rows=rows)

    @staticmethod
    def concat(batches: Sequence["Batch"]) -> "Batch":
        """One batch of ``batches`` in order; columnar if every part is."""
        if len(batches) == 1:
            return batches[0]
        size = sum(b.size for b in batches)
        if all(b._columns is not None for b in batches):
            parts = zip(*(b._columns for b in batches))
            return Batch(size, columns=[_concat_column(p) for p in parts])
        return Batch(size, rows=list(chain.from_iterable(b.rows() for b in batches)))


def _concat_column(parts: Sequence[ColumnValues]) -> ColumnValues:
    if all(isinstance(p, np.ndarray) for p in parts):
        return np.concatenate(parts)
    return list(
        chain.from_iterable(p.tolist() if isinstance(p, np.ndarray) else p for p in parts)
    )


def rechunk(batches: Iterable[Batch], size: int) -> Iterator[Batch]:
    """Re-cut a stream of batches into batches of exactly ``size`` rows
    (the last one may be shorter); row order is kept."""
    pending: list[Batch] = []
    count = 0
    for batch in batches:
        pending.append(batch)
        count += batch.size
        if count < size:
            continue
        merged = Batch.concat(pending)
        start = 0
        while count - start >= size:
            yield merged.slice(start, start + size)
            start += size
        pending = [merged.slice(start, count)] if start < count else []
        count -= start
    if count:
        yield Batch.concat(pending)
