"""Catalog persistence: tables *and models* survive close/reopen.

Heap pages already live in the disk file; what is lost on close is the
catalog — which table owns which first page, and the registered models.
This module serializes that metadata to a JSON sidecar next to the page
file:

* tables — name, column list, first page id, row count;
* models — the architecture (layer specs) plus references to the weight
  block tables, which are ordinary heap tables in the same page file.

Model weights therefore persist *as relations*, exactly the paper's
storage story (Sec. 4): reopening a database rebuilds each model by
scanning its block tables back into layer parameters.

Crash consistency: :func:`save_sidecar` writes a temp file, flushes and
fsyncs it, snapshots the previous sidecar generation to ``<path>.bak``,
then atomically renames the temp file over the primary.  At every
instant there is a parseable sidecar on disk: a crash before the rename
leaves the old primary, a crash after leaves the new one, and a corrupt
primary (detected as a JSON error on load) falls back to the ``.bak``
generation.  :func:`load_sidecar` never leaks a raw
``json.JSONDecodeError``; unrecoverable corruption raises
:class:`~repro.errors.StorageError` naming the path(s) involved.

Fault sites ``persist.sidecar`` (before the temp write) and
``persist.sidecar_replace`` (between fsync and rename) simulate crashes
in each window of the protocol.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
from typing import Sequence

import numpy as np

from ..dlruntime.layers import (
    Conv2d,
    Flatten,
    Layer,
    Linear,
    MaxPool2d,
    Model,
    ReLU,
    Sigmoid,
    Softmax,
)
from ..errors import StorageError
from ..faults import NULL_INJECTOR, FaultInjector
from ..relational.schema import Column, ColumnType, Schema
from ..tensor.blocked import BlockedMatrix
from .catalog import Catalog, VersionRecord
from .heap import HeapFile
from .serde import RowSerde

# Version 2: the page file switched to checksummed slots
# (magic + crc32 header per page — see repro.storage.disk).
FORMAT_VERSION = 2

logger = logging.getLogger(__name__)

_SIMPLE_LAYERS: dict[str, type[Layer]] = {
    "ReLU": ReLU,
    "Sigmoid": Sigmoid,
    "Softmax": Softmax,
    "Flatten": Flatten,
}


def sidecar_path(page_file_path: str) -> str:
    return page_file_path + ".catalog"


def backup_path(page_file_path_sidecar: str) -> str:
    """Path of the previous-generation sidecar kept for recovery."""
    return page_file_path_sidecar + ".bak"


# -- layer (de)serialization ---------------------------------------------


def _layer_spec(layer: Layer) -> dict:
    if isinstance(layer, Linear):
        return {
            "type": "Linear",
            "name": layer.name,
            "in_features": layer.in_features,
            "out_features": layer.out_features,
            "bias": layer.bias.data.tolist(),
        }
    if isinstance(layer, Conv2d):
        return {
            "type": "Conv2d",
            "name": layer.name,
            "in_channels": layer.in_channels,
            "out_channels": layer.out_channels,
            "kernel_size": list(layer.kernel_size),
            "stride": layer.stride,
            "padding": layer.padding,
            "bias": layer.bias.data.tolist(),
        }
    if isinstance(layer, MaxPool2d):
        return {"type": "MaxPool2d", "name": layer.name, "pool": layer.pool}
    for type_name, layer_type in _SIMPLE_LAYERS.items():
        if isinstance(layer, layer_type):
            return {"type": type_name, "name": layer.name}
    raise StorageError(f"cannot persist layer type {type(layer).__name__}")


def _rebuild_layer(
    spec: dict,
    catalog: Catalog,
    block_tables: dict[str, str],
    block_shape: tuple[int, int],
) -> Layer:
    layer_type = spec["type"]
    if layer_type in _SIMPLE_LAYERS:
        layer = _SIMPLE_LAYERS[layer_type]()
        layer.name = spec["name"]
        return layer
    if layer_type == "MaxPool2d":
        return MaxPool2d(spec["pool"], name=spec["name"])
    if layer_type == "Linear":
        weight = _load_blocks(
            catalog,
            block_tables[spec["name"]],
            (spec["in_features"], spec["out_features"]),
            block_shape,
        )
        return Linear(
            spec["in_features"],
            spec["out_features"],
            weight=weight,
            bias=np.array(spec["bias"]),
            name=spec["name"],
        )
    if layer_type == "Conv2d":
        kh, kw = spec["kernel_size"]
        out_ch = spec["out_channels"]
        in_ch = spec["in_channels"]
        kernel_matrix = _load_blocks(
            catalog,
            block_tables[spec["name"]],
            (kh * kw * in_ch, out_ch),
            block_shape,
        )
        kernels = kernel_matrix.T.reshape(out_ch, kh, kw, in_ch)
        return Conv2d(
            in_ch,
            out_ch,
            (kh, kw),
            stride=spec["stride"],
            padding=spec["padding"],
            kernels=kernels,
            bias=np.array(spec["bias"]),
            name=spec["name"],
        )
    raise StorageError(f"unknown persisted layer type {layer_type!r}")


def _load_blocks(
    catalog: Catalog, table: str, shape: tuple[int, int], block_shape: tuple[int, int]
) -> np.ndarray:
    return BlockedMatrix.load(catalog.get_table(table), shape, block_shape).to_dense()


# -- catalog (de)serialization ------------------------------------------


def serialize_catalog(
    catalog: Catalog,
    block_shape: tuple[int, int],
    models: Sequence[VersionRecord] = (),
) -> dict:
    """Snapshot the tables and the given model version records; ensures
    every model's weights are in block tables first (so only metadata
    needs the sidecar)."""
    from ..models.store import store_model_blocks

    for info in models:
        store_model_blocks(catalog, info, block_shape)
    tables = [
        {
            "name": info.name,
            "columns": [[c.name, c.ctype.value] for c in info.schema],
            "first_page_id": info.first_page_id,
            "row_count": info.row_count,
        }
        for info in catalog.tables()
    ]
    model_entries = [
        {
            "name": info.name,
            "input_shape": list(info.model.input_shape),
            "model_name": info.model.name,
            "layers": [_layer_spec(layer) for layer in info.model.layers],
            "block_tables": dict(info.block_tables),
            "metadata": {
                k: v for k, v in info.metadata.items() if _json_safe(v)
            },
        }
        for info in models
    ]
    return {
        "version": FORMAT_VERSION,
        "block_shape": list(block_shape),
        "tables": tables,
        "models": model_entries,
    }


def restore_catalog(
    catalog: Catalog, snapshot: dict
) -> list[tuple[str, Model, dict, dict]]:
    """Rebuild tables into an empty catalog and return the persisted
    models as ``(name, model, block_tables, metadata)`` in file order.

    A structurally malformed snapshot (missing keys, wrong value types)
    raises :class:`StorageError` rather than leaking ``KeyError`` /
    ``TypeError`` from the guts of the restore.
    """
    if snapshot.get("version") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported catalog format version {snapshot.get('version')!r}"
        )
    try:
        return _restore_catalog(catalog, snapshot)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise StorageError(
            f"malformed catalog snapshot: {type(exc).__name__}: {exc}"
        ) from exc


def _restore_catalog(catalog: Catalog, snapshot: dict) -> list:
    from .catalog import TableInfo

    block_shape = tuple(snapshot["block_shape"])
    for table in snapshot["tables"]:
        schema = Schema(
            Column(name, ColumnType(ctype)) for name, ctype in table["columns"]
        )
        heap = HeapFile(
            catalog.pool, RowSerde(schema), first_page_id=table["first_page_id"]
        )
        catalog.attach_table(
            TableInfo(
                name=table["name"],
                schema=schema,
                heap=heap,
                row_count=table["row_count"],
            )
        )
    models = []
    for model_snapshot in snapshot["models"]:
        block_tables = model_snapshot["block_tables"]
        layers = [
            _rebuild_layer(spec, catalog, block_tables, block_shape)  # type: ignore[arg-type]
            for spec in model_snapshot["layers"]
        ]
        model = Model(
            model_snapshot["model_name"],
            layers,
            input_shape=tuple(model_snapshot["input_shape"]),
        )
        models.append(
            (
                model_snapshot["name"],
                model,
                dict(block_tables),
                dict(model_snapshot["metadata"]),
            )
        )
    return models


def _json_safe(value: object) -> bool:
    try:
        json.dumps(value)
        return True
    except TypeError:
        return False


def save_sidecar(
    path: str,
    snapshot: dict,
    injector: FaultInjector | None = None,
    recorder=None,
) -> None:
    """Atomically persist the catalog snapshot with a backup generation.

    Protocol: write+fsync a temp file, copy the current primary to
    ``<path>.bak``, then ``os.replace`` the temp over the primary.  A
    crash at any step leaves at least one parseable generation on disk.
    """
    injector = injector if injector is not None else NULL_INJECTOR
    injector.fire("persist.sidecar", path=path)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(snapshot, f)
        f.flush()
        os.fsync(f.fileno())
    injector.fire("persist.sidecar_replace", path=path)
    if os.path.exists(path):
        shutil.copyfile(path, backup_path(path))
    os.replace(tmp, path)
    if recorder is not None:
        recorder.emit(
            "sidecar.commit", path=path, tables=len(snapshot.get("tables", ()))
        )


def _read_sidecar(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_sidecar(
    path: str, injector: FaultInjector | None = None, recorder=None
) -> dict | None:
    """Load the catalog sidecar, falling back to the ``.bak`` generation.

    Returns ``None`` when no generation exists (a fresh database).  A
    corrupt primary with a readable backup logs a warning, records a
    recovery on the ``persist.sidecar`` site, and returns the backup;
    when neither generation parses, raises :class:`StorageError` naming
    every path that was tried — never a raw ``json.JSONDecodeError``.
    """
    injector = injector if injector is not None else NULL_INJECTOR
    bak = backup_path(path)
    primary_error: Exception | None = None
    if os.path.exists(path):
        try:
            return _read_sidecar(path)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            primary_error = exc
    elif not os.path.exists(bak):
        return None
    if os.path.exists(bak):
        try:
            snapshot = _read_sidecar(bak)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            raise StorageError(
                f"catalog sidecar {path!r} is corrupt "
                f"({primary_error or 'missing'}) and backup {bak!r} is "
                f"unreadable too ({exc})"
            ) from exc
        logger.warning(
            "catalog sidecar %r unreadable (%s); recovered from backup %r",
            path,
            primary_error or "missing",
            bak,
        )
        injector.record_recovery("persist.sidecar")
        if recorder is not None:
            recorder.emit(
                "sidecar.restored",
                path=path,
                backup=bak,
                reason=str(primary_error or "missing"),
            )
        return snapshot
    raise StorageError(
        f"catalog sidecar {path!r} is corrupt ({primary_error}) and no "
        f"backup generation exists at {bak!r}"
    ) from primary_error
