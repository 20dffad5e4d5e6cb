"""The columnar connector against the row connector it replaced.

``reference_connector.py`` holds the old connector verbatim.  On any
source both must cut the same chunks and write the same wire bytes, so
``wire_bytes`` and ``modeled_wire_seconds`` agree, and deliver the same
arrays.  INT columns are the one intended difference: the reference sends
them as float64, the columnar connector as exact int64 of the same width.
"""

import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dlruntime import Connector
from repro.errors import ExecutionError
from repro.relational import ColumnRef, ColumnType, Schema
from repro.relational.batch import rechunk
from repro.relational.operators import Project, SeqScan, ValuesScan
from repro.storage import BufferPool, Catalog, InMemoryDiskManager

from .reference_connector import Connector as ReferenceConnector
from .reference_connector import _batched

_U32 = struct.Struct("<I")
PAGE = 4096
ROW_COUNTS = [0, 1, 8191, 8192, 8193, 20_000]
NUMERIC = [ColumnType.DOUBLE, ColumnType.INT, ColumnType.BOOL]
INT64 = st.one_of(st.integers(-1000, 1000), st.integers(-(2**63), 2**63 - 1))
DOUBLES = st.one_of(
    st.floats(-1e6, 1e6), st.just(float("nan")), st.just(-0.0), st.just(float("inf"))
)


@st.composite
def numeric_tables(draw):
    """Up to three INT/DOUBLE/BOOL columns; a few NULL cells."""
    types = draw(st.lists(st.sampled_from(NUMERIC), min_size=1, max_size=3))
    n = draw(st.sampled_from(ROW_COUNTS))
    # Rows repeat a drawn pattern: hypothesis draws a few dozen values,
    # not 20 000.
    pattern = draw(
        st.lists(
            st.tuples(*[
                {ColumnType.INT: INT64, ColumnType.DOUBLE: DOUBLES,
                 ColumnType.BOOL: st.booleans()}[t]
                for t in types
            ]),
            min_size=1,
            max_size=20,
        )
    )
    rows = [pattern[i % len(pattern)] for i in range(n)]
    nulls = draw(st.sets(st.integers(0, max(0, n - 1)), max_size=3)) if n else set()
    rows = [
        tuple(None if i in nulls and j == i % len(types) else v for j, v in enumerate(row))
        for i, row in enumerate(rows)
    ]
    return Schema.of(*[(f"c{j}", t) for j, t in enumerate(types)]), rows


@st.composite
def blob_tables(draw):
    """An INT id and a BLOB of ``width`` doubles.  Payloads past a page go
    to overflow chains; a NULL or an odd-width row makes the column
    undeliverable, which both connectors must refuse."""
    width = draw(st.sampled_from([0, 1, 3, 520]))  # 520 doubles > one page
    n = draw(st.sampled_from([0, 1, 3] if width == 520 else ROW_COUNTS))
    odd = draw(st.sets(st.integers(0, max(0, n - 1)), max_size=2)) if n else set()
    odd_payload = draw(st.sampled_from([None, np.ones(520).tobytes(), b"\x01" * 12]))
    rows = [
        (i, odd_payload if i in odd else np.full(width, i / 7).tobytes()) for i in range(n)
    ]
    return Schema.of(("id", ColumnType.INT), ("blob", ColumnType.BLOB)), rows


def make_source(schema, rows, kind, tombstones):
    """``rows`` as a row-only ValuesScan, or a heap SeqScan (numpy batches
    for NULL-free fixed-width pages) bare or under a reordering Project.
    Heap tables also get deleted rows between the live ones."""
    if kind == "values":
        return ValuesScan(schema, rows)
    catalog = Catalog(BufferPool(InMemoryDiskManager(PAGE), capacity_pages=64))
    info = catalog.create_table("t", schema)
    for i, row in enumerate(rows):
        if tombstones and i % tombstones == 0:
            info.heap.delete(info.heap.insert(row))
        info.heap.insert(row)
    scan = SeqScan(info)
    if kind == "heap":
        return scan
    names = list(reversed(schema.names))
    return Project(scan, [(ColumnRef(n), n) for n in names])


def reference_wire(source, batch_size):
    chunks = [ReferenceConnector._serialize_batch(source.schema, b)
              for b in _batched(source, batch_size)]
    return b"".join(_U32.pack(len(chunk)) + chunk for chunk in chunks)


def split(schema, wire):
    """The wire as ``[(rows, [bytes of each column])]`` per chunk."""
    chunks, offset = [], 0
    while offset < len(wire):
        (length,) = _U32.unpack_from(wire, offset)
        end = offset + 4 + length
        (nrows,) = _U32.unpack_from(wire, offset + 4)
        offset += 8
        columns = []
        for col in schema:
            start = offset
            if col.ctype is ColumnType.BLOB:
                for __ in range(nrows):
                    offset += 4 + _U32.unpack_from(wire, offset)[0]
            else:
                offset += 8 * nrows
            columns.append(wire[start:offset])
        assert offset == end
        chunks.append((nrows, columns))
    return chunks


def exact_ints(values):
    return np.array([0 if v is None else v for v in values], dtype=np.int64)


def outcome(connector, source, batch_size, errors):
    try:
        return connector.extract(source, batch_size)
    except errors as exc:  # an undeliverable BLOB column
        return exc


def check(schema, rows, kind, tombstones, batch_size):
    source = make_source(schema, rows, kind, tombstones)
    schema = source.schema
    expected = list(source)
    wire, num_rows, nchunks = Connector._serialize(
        schema, rechunk(source.batches(), batch_size)
    )
    ref_wire = reference_wire(source, batch_size)
    assert len(wire) == len(ref_wire)
    got, ref = split(schema, wire), split(schema, ref_wire)
    assert [n for n, __ in got] == [n for n, __ in ref]
    assert (num_rows, nchunks) == (len(expected), len(ref))
    start = 0
    for (nrows, columns), (__, ref_columns) in zip(got, ref):
        chunk_rows = expected[start : start + nrows]
        start += nrows
        for j, (col, data, ref_data) in enumerate(zip(schema, columns, ref_columns)):
            if col.ctype is not ColumnType.INT:
                assert data == ref_data, col.name
                continue
            ints = np.frombuffer(data, np.int64)
            assert np.array_equal(ints, exact_ints(r[j] for r in chunk_rows))
            assert np.array_equal(np.frombuffer(ref_data, np.float64), ints.astype(np.float64))

    # The reference leaked numpy's ValueError; the columnar connector must
    # refuse the same sources with an ExecutionError.
    result = outcome(Connector(), source, batch_size, ExecutionError)
    ref_result = outcome(ReferenceConnector(), source, batch_size, (ExecutionError, ValueError))
    assert isinstance(result, Exception) == isinstance(ref_result, Exception), result
    if isinstance(result, Exception):
        return
    assert result.num_rows == ref_result.num_rows == len(expected)
    assert result.wire_bytes == ref_result.wire_bytes
    assert result.modeled_wire_seconds == ref_result.modeled_wire_seconds
    for j, col in enumerate(schema):
        array, ref_array = result.columns[col.name], ref_result.columns[col.name]
        if col.ctype is ColumnType.INT:
            assert array.dtype == np.int64
            assert np.array_equal(array, exact_ints(r[j] for r in expected))
        else:
            assert (array.dtype, array.shape) == (ref_array.dtype, ref_array.shape)
            assert array.tobytes() == ref_array.tobytes(), col.name


SOURCES = st.sampled_from(["values", "heap", "project"])
TOMBSTONES = st.sampled_from([0, 3])
BATCH_SIZES = st.sampled_from([8192, 1000])


@settings(max_examples=40, deadline=None)
@given(table=numeric_tables(), kind=SOURCES, tombstones=TOMBSTONES, batch_size=BATCH_SIZES)
def test_numeric_columns_match_the_row_connector(table, kind, tombstones, batch_size):
    check(*table, kind, tombstones, batch_size)


@settings(max_examples=25, deadline=None)
@given(table=blob_tables(), kind=SOURCES, tombstones=TOMBSTONES, batch_size=BATCH_SIZES)
def test_blob_columns_match_the_row_connector(table, kind, tombstones, batch_size):
    check(*table, kind, tombstones, batch_size)


@pytest.mark.parametrize(
    "payloads, problem",
    [
        # Row 8 192 opens the second chunk alone, so only a check that
        # spans chunks sees that its payload differs from the first's.
        ([np.ones(3).tobytes()] * 8192 + [np.ones(1).tobytes()], "lengths differ"),
        ([np.ones(3).tobytes()] * 8192 + [b"\x01" * 12], "lengths differ"),
        # Equal widths that are not a whole number of doubles.
        ([b"\x01" * 4] * 3, "4-byte"),
        ([b"\x01" * 12] * 3, "12-byte"),
    ],
    ids=["new-width-at-chunk-2", "ragged-at-chunk-2", "4-bytes", "12-bytes"],
)
def test_undeliverable_blob_columns_are_refused(payloads, problem):
    schema = Schema.of(("id", ColumnType.INT), ("blob", ColumnType.BLOB))
    rows = list(enumerate(payloads))
    check(schema, rows, "values", 0, 8192)
    with pytest.raises(ExecutionError, match=rf"'blob'.*{problem}"):
        Connector().extract(ValuesScan(schema, rows))
