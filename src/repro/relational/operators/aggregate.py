"""Hash aggregation with optional group-by keys.

Besides SQL aggregates, this operator supports ``SUM_BLOCK``: element-wise
summation of numpy arrays carried through BLOB columns — the "aggregation"
half of the paper's matmul → join + aggregation rewrite.

The operator works a batch at a time: each batch's group keys are
factorised once into group ids, and every aggregate folds the whole batch
into per-group state arrays.  SUM, AVG, MIN and MAX fold Python objects
in input order, so results equal a row-at-a-time fold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from operator import add
from typing import Callable, Iterator, Sequence

import numpy as np

from ...errors import ExecutionError, PlanError
from ..batch import Batch, ColumnValues
from ..expressions import BoundExpression, Expression
from ..schema import Column, ColumnType, Schema
from .base import Operator

#: A group key → group id map; ids are assigned in first-appearance order.
Groups = dict[tuple, int]


def _grown(array: np.ndarray, size: int, fill: object) -> np.ndarray:
    """``array`` with room for at least ``size`` entries; new ones are ``fill``."""
    if size <= len(array):
        return array
    grown = np.full(max(size, 2 * len(array)), fill, dtype=array.dtype)
    grown[: len(array)] = array
    return grown


def _present(gids: np.ndarray, values: ColumnValues) -> tuple[np.ndarray, np.ndarray]:
    """The non-NULL ``values`` and their group ids (array columns have no NULLs)."""
    if isinstance(values, np.ndarray):
        return gids, values
    keep = np.fromiter((v is not None for v in values), dtype=bool, count=len(values))
    kept = list(compress(values, keep))
    objects = np.empty(len(kept), dtype=object)
    objects[:] = kept
    return gids[keep], objects


class _State:
    """One aggregate's running values for every group in ``groups``.

    State arrays grow with ``groups`` (see :meth:`grow`); the ``add`` and
    ``results`` of every subclass start by calling it.
    """

    def __init__(self, groups: Groups) -> None:
        self.groups = groups

    def grow(self) -> None:
        """Make room for every group in ``groups``."""
        raise NotImplementedError

    def add(self, gids: np.ndarray, values: ColumnValues | None) -> None:
        """Fold one batch: row ``i`` belongs to group ``gids[i]``."""
        raise NotImplementedError

    def results(self) -> list[object]:
        """One result per group, in group-id order."""
        raise NotImplementedError


class _Count(_State):
    """COUNT(x), or COUNT(*) when ``add`` gets no values."""

    def __init__(self, groups: Groups) -> None:
        super().__init__(groups)
        self.n = np.zeros(0, dtype=np.int64)

    def grow(self):
        self.n = _grown(self.n, len(self.groups), 0)

    def add(self, gids, values):
        self.grow()
        if values is not None:
            gids, __ = _present(gids, values)
        self.n[: len(self.groups)] += np.bincount(gids, minlength=len(self.groups))

    def results(self):
        self.grow()
        return self.n[: len(self.groups)].tolist()


def _folding(step: Callable[[object, object], object]) -> np.ufunc:
    """An object ufunc whose ``at`` applies ``step(value, input)`` to a
    group's value, or takes the input while the value is still ``None``."""
    return np.frompyfunc(lambda acc, value: value if acc is None else step(acc, value), 2, 1)


class _Fold(_State):
    """SUM, MIN or MAX: ``fold`` runs over each group's non-NULL inputs in
    input order, with the same Python operations as a row-at-a-time fold,
    so NaN, ``-0.0`` and ties come out as they would there."""

    fold: np.ufunc

    def __init__(self, groups: Groups) -> None:
        super().__init__(groups)
        self.value = np.zeros(0, dtype=object)

    def grow(self):
        self.value = _grown(self.value, len(self.groups), None)

    def add(self, gids, values):
        self.grow()
        gids, values = _present(gids, values)
        with np.errstate(invalid="ignore"):  # NaN comparisons
            self.fold.at(self.value, gids, values)

    def results(self):
        self.grow()
        return self.value[: len(self.groups)].tolist()


class _Sum(_Fold):
    fold = _folding(add)


class _Min(_Fold):
    fold = _folding(lambda acc, value: value if value < acc else acc)


class _Max(_Fold):
    fold = _folding(lambda acc, value: value if value > acc else acc)


class _Avg(_Count):
    def __init__(self, groups: Groups) -> None:
        super().__init__(groups)
        self.total = np.zeros(0, dtype=object)

    def grow(self):
        super().grow()
        self.total = _grown(self.total, len(self.groups), 0.0)

    def add(self, gids, values):
        gids, values = _present(gids, values)
        super().add(gids, None)
        np.add.at(self.total, gids, values)

    def results(self):
        counts = super().results()
        return [t / n if n else None for t, n in zip(self.total.tolist(), counts)]


class _SumBlock(_State):
    """Element-wise sum of float64 payloads, accumulated in place.

    A group's first payload is copied once — or adopted, when it is a
    writable float64 array, which its producer hands over — and every later
    payload is added into it from its own buffer.  A float64 array may be a
    strided view (a stripe's blocks are); it is read through its strides.
    ``bytes`` are made once per group, by :meth:`results`.
    """

    def __init__(self, groups: Groups) -> None:
        super().__init__(groups)
        self.blocks: list[np.ndarray | None] = []

    def grow(self):
        self.blocks.extend([None] * (len(self.groups) - len(self.blocks)))

    def add(self, gids, values):
        self.grow()
        blocks = self.blocks
        for gid, value in zip(gids.tolist(), values):
            if value is None:
                continue
            if isinstance(value, np.ndarray):
                if value.dtype != np.float64:
                    raise self._error(gid, f"an array of {value.dtype} is not doubles")
                payload = value.reshape(-1)  # a copy only of a strided view
            else:
                try:
                    payload = np.frombuffer(value, dtype=np.float64)
                except ValueError:
                    size = memoryview(value).nbytes
                    raise self._error(gid, f"a {size}-byte payload is not whole doubles") from None
            total = blocks[gid]
            if total is None:
                adopt = isinstance(value, np.ndarray) and payload.flags.writeable
                blocks[gid] = payload if adopt else payload.copy()
            elif total.size != payload.size:
                raise self._error(
                    gid, f"payloads of {total.size} and {payload.size} doubles differ in length"
                )
            else:
                total += payload

    def _error(self, gid: int, problem: str) -> ExecutionError:
        key = next(islice(self.groups, gid, None))
        return ExecutionError(f"SUM_BLOCK: {problem} in group {key!r}")

    def results(self):
        self.grow()
        return [None if block is None else block.tobytes() for block in self.blocks]


_AGGREGATES: dict[str, tuple[Callable[[Groups], _State], ColumnType | None]] = {
    # name -> (state factory, fixed result type or None = input type)
    "SUM": (_Sum, None),
    "COUNT": (_Count, ColumnType.INT),
    "COUNT_STAR": (_Count, ColumnType.INT),
    "AVG": (_Avg, ColumnType.DOUBLE),
    "MIN": (_Min, None),
    "MAX": (_Max, None),
    "SUM_BLOCK": (_SumBlock, ColumnType.BLOB),
}


def aggregate_function_names() -> frozenset[str]:
    """Names accepted by the SQL binder (COUNT_STAR is spelled COUNT(*))."""
    return frozenset(n for n in _AGGREGATES if n != "COUNT_STAR")


@dataclass
class AggregateSpec:
    """One aggregate in the output: function, input expression, output name."""

    func: str
    arg: Expression | BoundExpression | None
    output_name: str

    def bind(
        self, schema: Schema
    ) -> tuple[Callable[[Groups], _State], BoundExpression | None, ColumnType]:
        fname = self.func.upper()
        if fname not in _AGGREGATES:
            raise PlanError(f"unknown aggregate function {self.func!r}")
        factory, fixed_type = _AGGREGATES[fname]
        if fname == "COUNT_STAR":
            return factory, None, ColumnType.INT
        if self.arg is None:
            raise PlanError(f"aggregate {fname} requires an argument")
        bound = self.arg.bind(schema) if isinstance(self.arg, Expression) else self.arg
        if fname == "SUM_BLOCK":
            if bound.ctype is not ColumnType.BLOB:
                raise PlanError("SUM_BLOCK requires a BLOB argument")
        elif fname not in ("MIN", "MAX", "COUNT") and not bound.ctype.is_numeric:
            raise PlanError(f"aggregate {fname} requires a numeric argument")
        ctype = fixed_type if fixed_type is not None else bound.ctype
        return factory, bound, ctype


class Aggregate(Operator):
    """Group rows by key expressions and fold aggregates per group.

    With no group keys, produces exactly one row (global aggregation),
    even over empty input.  Groups come out in first-appearance order.
    """

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[tuple[Expression | BoundExpression, str]],
        aggregates: Sequence[AggregateSpec],
    ):
        if not aggregates and not group_by:
            raise PlanError("aggregate needs at least one group key or aggregate")
        self._child = child
        self._group_exprs: list[tuple[BoundExpression, str]] = []
        for expr, name in group_by:
            bound = expr.bind(child.schema) if isinstance(expr, Expression) else expr
            self._group_exprs.append((bound, name))
        self._agg_bound = []
        columns: list[Column] = [
            Column(name, expr.ctype) for expr, name in self._group_exprs
        ]
        for spec in aggregates:
            factory, bound, ctype = spec.bind(child.schema)
            self._agg_bound.append((factory, bound))
            columns.append(Column(spec.output_name, ctype))
        self._schema = Schema(columns)
        self._specs = list(aggregates)

    def batches(self) -> Iterator[Batch]:
        groups: Groups = {} if self._group_exprs else {(): 0}
        states = [factory(groups) for factory, __ in self._agg_bound]
        for batch in self._child.batches():
            gids = self._group_ids(batch, groups)
            for state, (__, arg), spec in zip(states, self._agg_bound, self._specs):
                values = arg.eval_batch(batch) if arg is not None else None
                try:
                    state.add(gids, values)
                except TypeError as exc:  # MIN/MAX over a mixed-type column
                    raise ExecutionError(f"{spec.func}({arg.name}): {exc}") from None
        if not groups:
            return
        keys = [list(column) for column in zip(*groups)]
        yield Batch(len(groups), keys + [state.results() for state in states])

    def _group_ids(self, batch: Batch, groups: Groups) -> np.ndarray:
        """Each row's group id; groups new to ``groups`` are added in order."""
        columns = [expr.eval_batch(batch) for expr, __ in self._group_exprs]
        if not columns:
            return np.zeros(len(batch), dtype=np.intp)
        keys = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        return np.fromiter(
            (groups.setdefault(key, len(groups)) for key in keys), dtype=np.intp, count=len(batch)
        )

    def describe(self) -> str:
        keys = ", ".join(name for __, name in self._group_exprs)
        aggs = ", ".join(f"{s.func}(...) AS {s.output_name}" for s in self._specs)
        return f"Aggregate(group by [{keys}]; {aggs})"

    def children(self) -> tuple[Operator, ...]:
        return (self._child,)
