"""Schemas and column types.

Rows flow through the engine as plain Python tuples; a :class:`Schema` gives
those tuples meaning.  The type system is deliberately small — the paper's
workloads need integers, doubles, text, booleans, and BLOBs (tensor blocks
are stored as BLOB columns in the relation-centric representation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from ..errors import SchemaError

T = TypeVar("T")

# Column references memoised per schema by Schema.bound.
_MAX_BOUND = 1024


class ColumnType(enum.Enum):
    """The value types a column may hold."""

    INT = "INT"
    DOUBLE = "DOUBLE"
    TEXT = "TEXT"
    BOOL = "BOOL"
    BLOB = "BLOB"

    @property
    def is_numeric(self) -> bool:
        return self in (ColumnType.INT, ColumnType.DOUBLE, ColumnType.BOOL)

    @property
    def python_types(self) -> tuple[type, ...]:
        return _PYTHON_TYPES[self]

    @classmethod
    def parse(cls, name: str) -> "ColumnType":
        """Parse a SQL type name (accepts common aliases)."""
        normalized = _TYPE_ALIASES.get(name.upper())
        if normalized is None:
            raise SchemaError(f"unknown column type {name!r}")
        return normalized


_TYPE_ALIASES = {
    "INT": ColumnType.INT,
    "INTEGER": ColumnType.INT,
    "BIGINT": ColumnType.INT,
    "DOUBLE": ColumnType.DOUBLE,
    "FLOAT": ColumnType.DOUBLE,
    "REAL": ColumnType.DOUBLE,
    "TEXT": ColumnType.TEXT,
    "VARCHAR": ColumnType.TEXT,
    "STRING": ColumnType.TEXT,
    "BOOL": ColumnType.BOOL,
    "BOOLEAN": ColumnType.BOOL,
    "BLOB": ColumnType.BLOB,
    "BYTEA": ColumnType.BLOB,
}

_PYTHON_TYPES: dict[ColumnType, tuple[type, ...]] = {
    ColumnType.INT: (int, np.integer),
    ColumnType.DOUBLE: (float, int, np.floating, np.integer),
    ColumnType.TEXT: (str,),
    ColumnType.BOOL: (bool, np.bool_),
    ColumnType.BLOB: (bytes, bytearray, memoryview),
}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    ctype: ColumnType

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")

    def renamed(self, name: str) -> "Column":
        return Column(name, self.ctype)


class Schema:
    """An ordered collection of columns with fast name lookup.

    Column names are case-insensitive (stored lower-cased), matching the SQL
    front end.  Duplicate names are rejected: operators that concatenate
    schemas (joins) qualify columns first.
    """

    __slots__ = ("_columns", "_index", "_bound")

    def __init__(self, columns: Iterable[Column]):
        self._columns: tuple[Column, ...] = tuple(
            Column(c.name.lower(), c.ctype) for c in columns
        )
        self._bound: dict[str, object] = {}
        self._index: dict[str, int] = {}
        for i, col in enumerate(self._columns):
            if col.name in self._index:
                raise SchemaError(f"duplicate column name {col.name!r}")
            self._index[col.name] = i

    @classmethod
    def of(cls, *pairs: tuple[str, ColumnType]) -> "Schema":
        """Build a schema from (name, type) pairs."""
        return cls(Column(name, ctype) for name, ctype in pairs)

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __getitem__(self, i: int) -> Column:
        return self._columns[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.ctype.value}" for c in self._columns)
        return f"Schema({cols})"

    def index_of(self, name: str) -> int:
        """Return the position of ``name`` (case-insensitive)."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SchemaError(
                f"no column {name!r} in schema with columns {list(self.names)}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index

    def bound(self, name: str, resolve: Callable[["Schema"], T]) -> T:
        """``resolve(self)``, memoised under the column reference ``name``.

        A schema never changes, so a binding never goes stale.  The memo
        holds every spelling of every column a query names and is bounded
        for names that resolve by suffix ("x.id", "y.id").
        """
        value = self._bound.get(name)
        if value is None:
            value = resolve(self)
            if len(self._bound) < _MAX_BOUND:
                self._bound[name] = value
        return value

    def column(self, name: str) -> Column:
        return self._columns[self.index_of(name)]

    def project(self, names: Sequence[str]) -> "Schema":
        """Return a new schema restricted to ``names`` in the given order."""
        return Schema(self.column(n) for n in names)

    def concat(self, other: "Schema", prefixes: tuple[str, str] | None = None) -> "Schema":
        """Concatenate two schemas (for joins).

        If ``prefixes`` is given, every column is qualified as
        ``prefix.name``; otherwise names must not collide.
        """
        if prefixes is None:
            return Schema(list(self._columns) + list(other._columns))
        left_prefix, right_prefix = prefixes
        left = (c.renamed(f"{left_prefix}.{c.name}") for c in self._columns)
        right = (c.renamed(f"{right_prefix}.{c.name}") for c in other._columns)
        return Schema(list(left) + list(right))

    def validate_row(self, row: Sequence[object]) -> None:
        """Raise :class:`SchemaError` if ``row`` does not conform."""
        if len(row) != len(self._columns):
            raise SchemaError(
                f"row has {len(row)} values but schema has {len(self._columns)} columns"
            )
        for value, col in zip(row, self._columns):
            if value is None:
                continue
            if not isinstance(value, col.ctype.python_types):
                raise SchemaError(
                    f"value {value!r} is not valid for column "
                    f"{col.name!r} of type {col.ctype.value}"
                )

    def coerce_row(self, row: Sequence[object]) -> tuple[object, ...]:
        """Validate and normalise a row (numpy scalars → Python scalars)."""
        self.validate_row(row)
        out = []
        for value, col in zip(row, self._columns):
            if value is None:
                out.append(None)
            elif col.ctype is ColumnType.INT:
                out.append(int(value))
            elif col.ctype is ColumnType.DOUBLE:
                out.append(float(value))
            elif col.ctype is ColumnType.BOOL:
                out.append(bool(value))
            elif col.ctype is ColumnType.BLOB:
                out.append(bytes(value))
            else:
                out.append(value)
        return tuple(out)
