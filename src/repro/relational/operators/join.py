"""Equi-joins: in-memory hash join with Grace-style spilling, plus a
nested-loop join for arbitrary predicates.

The hash join is the workhorse of the relation-centric representation:
``A × B`` over blocked tensors becomes
``HashJoin(blocks_A, blocks_B, A.col_blk = B.row_blk)`` followed by an
aggregation.  When the build side exceeds ``max_build_rows``, both inputs
are partitioned to temporary spill files and each partition is joined
independently — the same discipline that lets the paper's netsDB run
operators larger than memory.
"""

from __future__ import annotations

import pickle
import tempfile
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from ...errors import PlanError
from ..batch import Batch
from ..expressions import BoundExpression, Expression
from .base import Operator, Row


def _bind_keys(
    keys: Sequence[Expression | BoundExpression], op: Operator
) -> list[BoundExpression]:
    bound = []
    for key in keys:
        bound.append(key.bind(op.schema) if isinstance(key, Expression) else key)
    return bound


def _join_keys(batch: Batch, keys: list[BoundExpression]) -> Sequence[object]:
    """One hashable key per row of ``batch``, ``None`` where any part is NULL.

    A single key expression gives bare values, several give tuples; both
    sides of a join have the same number of keys, so they agree.
    """
    columns = [
        c.tolist() if isinstance(c, np.ndarray) else c
        for c in (key.eval_batch(batch) for key in keys)
    ]
    if len(columns) == 1:
        return columns[0]
    return [None if None in key else key for key in zip(*columns)]


class HashJoin(Operator):
    """Equi-join on one or more key expressions.

    ``join_type`` is ``"inner"`` or ``"left"``.  The left input is the
    build side by convention; callers should place the smaller input left.
    The build side is held as one batch of rows plus key → row-index lists;
    each probe batch yields one output batch of paired rows
    (:meth:`Batch.pair`).  Output follows the probe
    order; a left join then emits the unmatched left rows (NULL keys
    included) in input order.
    """

    DEFAULT_MAX_BUILD_ROWS = 1_000_000
    SPILL_PARTITIONS = 16

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: Sequence[Expression | BoundExpression],
        right_keys: Sequence[Expression | BoundExpression],
        join_type: str = "inner",
        max_build_rows: int | None = None,
    ):
        if len(left_keys) != len(right_keys):
            raise PlanError("join requires equal numbers of left and right keys")
        if not left_keys:
            raise PlanError("join requires at least one key")
        if join_type not in ("inner", "left"):
            raise PlanError(f"unsupported join type {join_type!r}")
        self._left = left
        self._right = right
        self._left_keys = _bind_keys(left_keys, left)
        self._right_keys = _bind_keys(right_keys, right)
        self._join_type = join_type
        self._max_build_rows = (
            max_build_rows if max_build_rows is not None else self.DEFAULT_MAX_BUILD_ROWS
        )
        self._schema = left.schema.concat(right.schema)

    def batches(self) -> Iterator[Batch]:
        build: list[Batch] = []
        rows = 0
        left = self._left.batches()
        for batch in left:
            build.append(batch)
            rows += len(batch)
            if rows > self._max_build_rows:
                yield from self._grace_join(chain(build, left))
                return
        yield from self._join(build, self._right.batches())

    def _join(self, build_batches: list[Batch], probe: Iterable[Batch]) -> Iterator[Batch]:
        """Join an in-memory build side against a stream of probe batches.

        ``build_batches`` is handed over: it is emptied once its rows are in
        the build table, so the build side is held once during the probe.
        """
        rows: list[Row] = []
        table: dict[object, list[int]] = {}
        for batch in build_batches:
            for i, key in enumerate(_join_keys(batch, self._left_keys), len(rows)):
                if key is not None:
                    table.setdefault(key, []).append(i)
            rows += batch.rows()
        build_batches.clear()
        if not rows:
            return
        build = Batch(len(rows), rows=rows)
        matched = np.zeros(len(build), dtype=bool) if self._join_type == "left" else None
        for batch in probe:
            left_idx: list[int] = []
            right_idx: list[int] = []
            for j, key in enumerate(_join_keys(batch, self._right_keys)):
                hits = table.get(key)
                if hits:
                    left_idx += hits
                    right_idx += [j] * len(hits)
            if not left_idx:
                continue
            if matched is not None:
                matched[left_idx] = True
            yield Batch.pair(build, left_idx, batch, right_idx)
        if matched is not None and not matched.all():
            unmatched = np.flatnonzero(~matched).tolist()
            nulls = Batch(1, rows=[(None,) * len(self._right.schema)])
            yield Batch.pair(build, unmatched, nulls, [0] * len(unmatched))

    # -- Grace partitioning --------------------------------------------

    def _grace_join(self, left: Iterator[Batch]) -> Iterator[Batch]:
        """Hash-partition both inputs to spill files, then join each
        partition in memory.  NULL keys hash like any value, so a left
        join's NULL-key rows stay in one partition and come out unmatched.
        """
        nparts = self.SPILL_PARTITIONS
        with tempfile.TemporaryFile() as left_spill, tempfile.TemporaryFile() as right_spill:
            left_offsets = self._partition_to_file(left_spill, left, self._left_keys, nparts)
            right_offsets = self._partition_to_file(
                right_spill, self._right.batches(), self._right_keys, nparts
            )
            for part in range(nparts):
                yield from self._join(
                    list(self._read_partition(left_spill, left_offsets[part])),
                    self._read_partition(right_spill, right_offsets[part]),
                )

    @staticmethod
    def _partition_to_file(
        spill, batches: Iterable[Batch], keys: list[BoundExpression], nparts: int
    ) -> list[list[tuple[int, int]]]:
        """Write rows into per-partition pickle chunks; returns offsets.

        Returns a list of (offset, length) lists, one per partition.  The
        spill format is pickle, which is safe here because the file is
        created and consumed within this process.
        """
        pending: list[list[Row]] = [[] for __ in range(nparts)]
        offsets: list[list[tuple[int, int]]] = [[] for __ in range(nparts)]
        chunk_rows = 4096

        def flush(part: int) -> None:
            if not pending[part]:
                return
            payload = pickle.dumps(pending[part], protocol=pickle.HIGHEST_PROTOCOL)
            spill.seek(0, 2)
            start = spill.tell()
            spill.write(payload)
            offsets[part].append((start, len(payload)))
            pending[part] = []

        for batch in batches:
            for row, key in zip(batch.rows(), _join_keys(batch, keys)):
                part = hash(key) % nparts
                pending[part].append(row)
                if len(pending[part]) >= chunk_rows:
                    flush(part)
        for part in range(nparts):
            flush(part)
        return offsets

    @staticmethod
    def _read_partition(spill, offsets: list[tuple[int, int]]) -> Iterator[Batch]:
        for start, length in offsets:
            spill.seek(start)
            rows = pickle.loads(spill.read(length))
            yield Batch(len(rows), rows=rows)

    def describe(self) -> str:
        keys = ", ".join(
            f"{l.name}={r.name}" for l, r in zip(self._left_keys, self._right_keys)
        )
        return f"HashJoin[{self._join_type}]({keys})"

    def children(self) -> tuple[Operator, ...]:
        return (self._left, self._right)


class NestedLoopJoin(Operator):
    """Join on an arbitrary boolean predicate (inner only).

    Quadratic; used when no equi-key exists.  The right side is
    materialized once.
    """

    def __init__(self, left: Operator, right: Operator, predicate: Expression):
        self._left = left
        self._right = right
        self._schema = left.schema.concat(right.schema)
        self._predicate = predicate.bind(self._schema)

    def rows(self) -> Iterator[Row]:
        right_rows = list(self._right)
        predicate = self._predicate.eval
        for left_row in self._left:
            for right_row in right_rows:
                combined = left_row + right_row
                if predicate(combined):
                    yield combined

    def describe(self) -> str:
        return f"NestedLoopJoin({self._predicate.name})"

    def children(self) -> tuple[Operator, ...]:
        return (self._left, self._right)
