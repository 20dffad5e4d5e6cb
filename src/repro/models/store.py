"""Persisting model parameters as tensor-block relations.

The relation-centric representation stores each weight matrix as a block
table inside the RDBMS (Sec. 4's data/model co-management).  Linear weights
are stored as-is (``in_features × out_features``); convolution kernels are
stored as the transposed kernel matrix ``kh·kw·C × out_channels`` so the
engine's im2col patches can multiply straight into them.
"""

from __future__ import annotations

import numpy as np

from ..dlruntime.layers import Conv2d, Layer, Linear
from ..storage.catalog import Catalog, VersionRecord, TableInfo
from ..tensor.blocked import BlockedMatrix


def _weight_matrix(layer: Layer) -> np.ndarray | None:
    """The 2-D matrix the relation-centric engine multiplies against."""
    if isinstance(layer, Linear):
        return layer.weight.data
    if isinstance(layer, Conv2d):
        out_channels = layer.out_channels
        return layer.kernels.data.reshape(out_channels, -1).T
    return None


def block_table_name(model_name: str, layer_name: str) -> str:
    return f"__model_{model_name}_{layer_name}_weight"


def store_model_blocks(
    catalog: Catalog,
    info: VersionRecord,
    block_shape: tuple[int, int],
) -> dict[str, str]:
    """Materialise every weight matrix of a registered model into block tables.

    Idempotent: layers already stored are skipped; a layer whose table was
    dropped is stored again.  Returns the mapping of ``layer_name`` → table
    name (also recorded in ``info.block_tables``).
    """
    for layer in info.model.layers:
        matrix = _weight_matrix(layer)
        if matrix is None:
            continue
        layer_name = layer.name
        if catalog.has_table(info.block_tables.get(layer_name, "")):
            continue
        table = block_table_name(info.name, layer_name)
        if not catalog.has_table(table):
            try:
                BlockedMatrix.from_dense(matrix, block_shape).store(catalog, table)
            except BaseException:
                # A half-stored table would read as a matrix with holes.
                if catalog.has_table(table):
                    catalog.drop_table(table)
                raise
        info.block_tables[layer_name] = table
    return dict(info.block_tables)


def weight_block_table(
    catalog: Catalog, info: VersionRecord, layer: Layer, block_shape: tuple[int, int]
) -> TableInfo:
    """The block table for one layer's weights, storing it on first use
    (and again after a drop)."""
    name = info.block_tables.get(layer.name)
    if name is None or not catalog.has_table(name):
        store_model_blocks(catalog, info, block_shape)
        name = info.block_tables[layer.name]
    return catalog.get_table(name)


def load_model_weights(
    catalog: Catalog,
    info: VersionRecord,
    layer_name: str,
    block_shape: tuple[int, int],
) -> BlockedMatrix:
    """Rebuild one layer's weight matrix from its block table."""
    layer = next((l for l in info.model.layers if l.name == layer_name), None)
    if layer is None:
        raise ValueError(f"model {info.name!r} has no layer {layer_name!r}")
    matrix = _weight_matrix(layer)
    if matrix is None:
        raise ValueError(f"layer {layer_name!r} has no stored weight matrix")
    table = catalog.get_table(info.block_tables[layer_name])
    return BlockedMatrix.load(table, matrix.shape, block_shape)  # type: ignore[arg-type]
