"""The system catalog: tables, and the record type of registered models.

The paper argues that managing models *inside* the RDBMS catalog (Sec. 4)
binds each model to its storage representation and training metadata, which
enables the optimizer to pick representations per operator.  A model
version's :class:`VersionRecord` therefore carries both the in-process
object and the tensor-block tables created for its relation-centric
representation; the records themselves are owned by the copy-on-write
:class:`~repro.lifecycle.ModelCatalog`, :class:`Catalog` holds tables only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..errors import CatalogError
from ..relational.schema import Schema
from .buffer_pool import BufferPool
from .heap import HeapFile
from .page import PageId
from .serde import RowSerde

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..dlruntime.layers import Model


@dataclass
class TableInfo:
    """Catalog entry for one relational table."""

    name: str
    schema: Schema
    heap: HeapFile
    row_count: int = 0

    @property
    def first_page_id(self) -> PageId:
        return self.heap.first_page_id


#: Version lifecycle states tracked per :class:`VersionRecord`.
V_READY = "ready"          # prepared and compiled, not taking traffic
V_SERVING = "serving"      # the stable version, takes non-canary traffic
V_CANARY = "canary"        # taking the deterministic canary slice
V_SHADOW = "shadow"        # mirrored traffic only, outputs compared
V_RETIRED = "retired"      # was serving (or deployed) and was replaced

#: The version ``register_model`` creates; it displays under the bare
#: model name.
BASE_VERSION = "v1"


@dataclass(frozen=True, eq=False)
class VersionRecord:
    """The one catalog record of a model version.

    Owned by the copy-on-write :class:`~repro.lifecycle.ModelCatalog`:
    routing changes replace ``state`` / ``since_generation`` in a new
    snapshot, while ``block_tables`` and ``metadata`` are shared by every
    copy of the record.  ``block_tables`` maps parameter names (e.g.
    ``"fc1.weight"``) to the relational tables holding their tensor
    blocks, populated lazily the first time the relation-centric engine
    needs them.
    """

    model_name: str
    model: "Model"
    version: str = BASE_VERSION
    state: str = V_SERVING
    since_generation: int = 0
    block_tables: dict[str, str] = field(default_factory=dict)
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Display / wire id: ``m`` for the base version, else ``m@v``.

        Names block tables, per-version breakers, cluster placement and
        ``SHOW MODELS`` rows; :func:`split_version_name` is its inverse.
        """
        if self.version == BASE_VERSION:
            return self.model_name
        return f"{self.model_name}@{self.version}"


def split_version_name(name: str) -> tuple[str, str | None]:
    """``"m@v"`` → ``("m", "v")``; a bare ``"m"`` → ``("m", None)``."""
    model, sep, version = name.lower().rpartition("@")
    return (model, version) if sep else (version, None)


class Catalog:
    """Name → object resolution for tables."""

    def __init__(self, pool: BufferPool):
        self._pool = pool
        self._tables: dict[str, TableInfo] = {}

    @property
    def pool(self) -> BufferPool:
        return self._pool

    def create_table(self, name: str, schema: Schema) -> TableInfo:
        self._check_new(name)
        heap = HeapFile(self._pool, RowSerde(schema))
        info = TableInfo(name=name.lower(), schema=schema, heap=heap)
        self._tables[info.name] = info
        return info

    def attach_table(self, info: TableInfo) -> None:
        """Re-register a table restored from a persisted catalog."""
        self._check_new(info.name)
        self._tables[info.name] = info

    def _check_new(self, name: str) -> None:
        key = name.lower()
        if key.startswith("sys."):
            # FROM sys.<name> reads a system relation, never a table.
            raise CatalogError(
                f"table name {name!r} is reserved: 'sys.' names system relations"
            )
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"no table named {name!r}")
        del self._tables[key]

    def get_table(self, name: str) -> TableInfo:
        key = name.lower()
        info = self._tables.get(key)
        if info is None:
            raise CatalogError(f"no table named {name!r}")
        return info

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> Iterator[TableInfo]:
        return iter(self._tables.values())
