"""Column kernels: a numeric comparison (and AND / OR / NOT over them) over
numpy columns is one mask per batch, equal value for value to the row
closure, including NaN, -0.0, ints past 2**53 and int/float mixing."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.batch import Batch
from repro.relational.expressions import (
    ColumnRef,
    Comparison,
    Like,
    Literal,
    LogicalOp,
    UnaryOp,
)
from repro.relational.operators import Filter, ValuesScan
from repro.relational.schema import ColumnType, Schema

SCHEMA = Schema.of(
    ("i", ColumnType.INT), ("j", ColumnType.INT), ("x", ColumnType.DOUBLE),
    ("y", ColumnType.DOUBLE), ("s", ColumnType.TEXT),
)
INTS = st.one_of(
    st.sampled_from([-(2**63), 2**63 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 0, -1]),
    st.integers(-3, 3),
)
FLOATS = st.one_of(
    st.sampled_from([math.nan, -0.0, 0.0, math.inf, -math.inf, 2.0**53, 2.0**53 + 2, -1.5]),
    st.integers(-6, 6).map(lambda k: k / 2),
)
LITERALS = st.one_of(
    INTS, FLOATS, st.sampled_from([2**63, -(2**63) - 1, 2**70])  # outside int64
).map(Literal)
OPS = st.sampled_from(["=", "!=", "<>", "<", "<=", ">", ">="])
NUMERIC = st.sampled_from(["i", "j", "x", "y"]).map(ColumnRef)

comparisons = st.builds(
    lambda op, left, right, swap: Comparison(op, right, left) if swap else Comparison(op, left, right),
    OPS,
    NUMERIC,
    st.one_of(NUMERIC, LITERALS, LITERALS.map(lambda lit: UnaryOp("-", lit))),
    st.booleans(),
)
predicates = st.recursive(
    comparisons,
    lambda inner: st.one_of(
        st.builds(lambda e: UnaryOp("NOT", e), inner),
        st.builds(LogicalOp, st.sampled_from(["AND", "OR"]), inner, inner),
    ),
    max_leaves=5,
)


def numpy_batch(ints_i, ints_j, xs, ys):
    n = min(len(ints_i), len(ints_j), len(xs), len(ys))
    columns = [
        np.array(ints_i[:n], dtype=np.int64), np.array(ints_j[:n], dtype=np.int64),
        np.array(xs[:n], dtype=np.float64), np.array(ys[:n], dtype=np.float64),
        ["s"] * n,
    ]
    return Batch(n, columns)


@settings(max_examples=400, deadline=None)
@given(
    predicates,
    st.lists(INTS, min_size=1, max_size=8),
    st.lists(INTS, min_size=1, max_size=8),
    st.lists(FLOATS, min_size=1, max_size=8),
    st.lists(FLOATS, min_size=1, max_size=8),
)
def test_a_kernel_equals_the_row_closure(predicate, ints_i, ints_j, xs, ys):
    bound = predicate.bind(SCHEMA)
    batch = numpy_batch(ints_i, ints_j, xs, ys)
    expected = [bound.eval(row) for row in batch.rows()]
    got = bound.eval_batch(batch)
    if isinstance(got, np.ndarray):
        assert got.dtype == bool
    assert [bool(v) for v in got] == expected


def test_kernels_run_on_numpy_columns_and_not_on_python_ones():
    bound = LogicalOp(
        "AND",
        Comparison("=", ColumnRef("i"), Literal(3)),
        Comparison("<=", ColumnRef("x"), UnaryOp("-", Literal(0.5))),
    ).bind(SCHEMA)
    batch = numpy_batch([3, 3, 4], [0, 0, 0], [-1.0, 0.0, -2.0], [0.0] * 3)
    got = bound.eval_batch(batch)
    assert isinstance(got, np.ndarray) and got.tolist() == [True, False, False]
    rows = Batch(2, rows=[(3, 0, -1.0, 0.0, "s"), (None, 0, -1.0, 0.0, "s")])
    assert bound.eval_batch(rows) == [True, None]  # a NULL needs the row path


@pytest.mark.parametrize(
    "predicate",
    [
        Comparison("<", ColumnRef("i"), Literal(2**63)),  # past int64
        Comparison("<", ColumnRef("x"), Literal(2**53 + 1)),  # not a float64
        Comparison("=", ColumnRef("i"), Literal(float(2**60))),  # an int column past 2**53
        Comparison("=", ColumnRef("i"), ColumnRef("x")),
    ],
)
def test_inexact_numpy_comparisons_take_the_row_path(predicate):
    bound = predicate.bind(SCHEMA)
    batch = numpy_batch([2**60 + 1, 1], [0, 0], [float(2**60), 1.0], [0.0, 0.0])
    got = bound.eval_batch(batch)
    assert not isinstance(got, np.ndarray)
    assert got == [bound.eval(row) for row in batch.rows()]


def test_text_and_like_keep_the_row_closure():
    assert Comparison("=", ColumnRef("s"), Literal("s")).bind(SCHEMA).kernel is None
    assert Like(ColumnRef("s"), "s%").bind(SCHEMA).kernel is None


def test_filter_keeps_what_the_mask_keeps():
    rows = [(1, 0, math.nan, 0.0, "a"), (2, 0, -0.0, 0.0, "b"), (None, 0, 1.0, 0.0, "c")]
    scan = ValuesScan(SCHEMA, rows)
    kept = list(Filter(scan, Comparison(">=", ColumnRef("x"), Literal(0.0))))
    assert kept == [rows[1], rows[2]]
