"""External merge sort: spilling runs must produce identical output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.relational import ColumnRef, ColumnType, Schema
from repro.relational.operators import Sort, SortKey, ValuesScan, collect

SCHEMA = Schema.of(("k", ColumnType.INT), ("v", ColumnType.TEXT))


def make_rows(rng, n):
    return [(int(rng.integers(0, 50)), f"row-{i}") for i in range(n)]


def test_external_sort_matches_in_memory(rng):
    rows = make_rows(rng, 5_000)
    keys = [SortKey(ColumnRef("k"))]
    in_memory = collect(Sort(ValuesScan(SCHEMA, rows), keys)).rows
    external = collect(
        Sort(ValuesScan(SCHEMA, rows), keys, max_rows_in_memory=256)
    ).rows
    assert external == in_memory
    assert [r[0] for r in external] == sorted(r[0] for r in rows)


def test_external_sort_descending_with_nulls(rng):
    rows = make_rows(rng, 1_000)
    rows += [(None, f"null-{i}") for i in range(20)]
    rng.shuffle(rows)
    keys = [SortKey(ColumnRef("k"), descending=True)]
    external = collect(
        Sort(ValuesScan(SCHEMA, rows), keys, max_rows_in_memory=128)
    ).rows
    # NULLS FIRST under DESC, then strictly non-increasing keys.
    assert all(r[0] is None for r in external[:20])
    values = [r[0] for r in external[20:]]
    assert values == sorted(values, reverse=True)


def test_external_sort_multi_key(rng):
    rows = make_rows(rng, 2_000)
    keys = [SortKey(ColumnRef("k")), SortKey(ColumnRef("v"), descending=True)]
    in_memory = collect(Sort(ValuesScan(SCHEMA, rows), keys)).rows
    external = collect(
        Sort(ValuesScan(SCHEMA, rows), keys, max_rows_in_memory=100)
    ).rows
    assert external == in_memory


def test_external_sort_restartable(rng):
    rows = make_rows(rng, 600)
    op = Sort(ValuesScan(SCHEMA, rows), [SortKey(ColumnRef("k"))], max_rows_in_memory=64)
    first = list(op)
    second = list(op)
    assert first == second


def test_exactly_at_budget_stays_in_memory(rng):
    rows = make_rows(rng, 100)
    op = Sort(ValuesScan(SCHEMA, rows), [SortKey(ColumnRef("k"))], max_rows_in_memory=100)
    assert [r[0] for r in op] == sorted(r[0] for r in rows)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.none(), st.integers(-100, 100)), min_size=0, max_size=300
    ),
    budget=st.integers(1, 50),
    descending=st.booleans(),
)
def test_property_external_equals_in_memory(values, budget, descending):
    schema = Schema.of(("k", ColumnType.INT))
    rows = [(v,) for v in values]
    keys = [SortKey(ColumnRef("k"), descending=descending)]
    in_memory = collect(Sort(ValuesScan(schema, rows), keys)).rows
    external = collect(
        Sort(ValuesScan(schema, rows), keys, max_rows_in_memory=budget)
    ).rows
    assert external == in_memory


STAT_VALUE = Schema.of(("stat", ColumnType.TEXT), ("value", ColumnType.TEXT))


@pytest.mark.parametrize(
    "values, max_rows",
    [
        ([3, "x", 1], None),  # sorted in memory
        ([2, 1, 3, "x"], 2),  # one spilled run mixes types
        ([2, 1, 4, 3, "y", "x"], 2),  # typed runs, mixed only in the merge
    ],
)
def test_sort_over_mixed_types_raises_execution_error(values, max_rows):
    rows = [(f"s{i}", v) for i, v in enumerate(values)]
    op = Sort(ValuesScan(STAT_VALUE, rows), [SortKey(ColumnRef("value"))], max_rows)
    with pytest.raises(ExecutionError, match="sort by value"):
        list(op)
