from typing import NamedTuple

import pytest

from repro.errors import SchemaError
from repro.relational import Column, ColumnType, Schema


def test_schema_basic_lookup():
    schema = Schema.of(("id", ColumnType.INT), ("name", ColumnType.TEXT))
    assert len(schema) == 2
    assert schema.index_of("id") == 0
    assert schema.index_of("NAME") == 1  # case-insensitive
    assert schema.column("name").ctype is ColumnType.TEXT


def test_duplicate_column_rejected():
    with pytest.raises(SchemaError):
        Schema.of(("x", ColumnType.INT), ("X", ColumnType.DOUBLE))


def test_missing_column_raises():
    schema = Schema.of(("a", ColumnType.INT))
    with pytest.raises(SchemaError):
        schema.index_of("b")
    assert not schema.has_column("b")


def test_project_reorders():
    schema = Schema.of(
        ("a", ColumnType.INT), ("b", ColumnType.DOUBLE), ("c", ColumnType.TEXT)
    )
    projected = schema.project(["c", "a"])
    assert projected.names == ("c", "a")


def test_concat_with_prefixes():
    left = Schema.of(("id", ColumnType.INT))
    right = Schema.of(("id", ColumnType.INT))
    joined = left.concat(right, prefixes=("l", "r"))
    assert joined.names == ("l.id", "r.id")


def test_concat_without_prefixes_rejects_collision():
    left = Schema.of(("id", ColumnType.INT))
    right = Schema.of(("id", ColumnType.INT))
    with pytest.raises(SchemaError):
        left.concat(right)


def test_validate_row_type_checks():
    schema = Schema.of(("id", ColumnType.INT), ("name", ColumnType.TEXT))
    schema.validate_row((1, "x"))
    schema.validate_row((None, None))
    with pytest.raises(SchemaError):
        schema.validate_row(("bad", "x"))
    with pytest.raises(SchemaError):
        schema.validate_row((1,))


def test_coerce_row_normalises_numpy_scalars():
    import numpy as np

    schema = Schema.of(("id", ColumnType.INT), ("v", ColumnType.DOUBLE))
    row = schema.coerce_row((np.int64(3), np.float64(2.5)))
    assert row == (3, 2.5)
    assert type(row[0]) is int
    assert type(row[1]) is float


def test_type_parse_aliases():
    assert ColumnType.parse("integer") is ColumnType.INT
    assert ColumnType.parse("FLOAT") is ColumnType.DOUBLE
    assert ColumnType.parse("varchar") is ColumnType.TEXT
    with pytest.raises(SchemaError):
        ColumnType.parse("tensorish")


def test_column_requires_name():
    with pytest.raises(SchemaError):
        Column("", ColumnType.INT)


def test_of_row_derives_column_types_from_annotations():
    class Row(NamedTuple):
        a: int
        b: float | None
        c: str
        d: bool
        e: object

    assert Schema.of_row(Row) == Schema.of(
        ("a", ColumnType.INT),
        ("b", ColumnType.DOUBLE),
        ("c", ColumnType.TEXT),
        ("d", ColumnType.BOOL),
        ("e", ColumnType.TEXT),
    )

    class Bad(NamedTuple):
        a: int
        b: bytes

    with pytest.raises(SchemaError, match="Bad.b"):
        Schema.of_row(Bad)
