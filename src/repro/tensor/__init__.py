"""Tensor blocks and blocked linear algebra.

A tensor is represented as a *relation of blocks* — the paper's
relation-centric representation.  :class:`BlockedMatrix` is the in-memory
view; :mod:`repro.tensor.linalg` builds the join+aggregation operator
pipelines that execute blocked matmul through the relational engine.
"""

from .block import block_array, block_table_schema
from .blocked import BlockedMatrix
from .im2col import (
    conv2d_direct,
    conv2d_via_im2col,
    conv_output_shape,
    im2col,
    kernel_matrix,
)
from .linalg import (
    bias_add_pipeline,
    block_scan_from_matrix,
    block_scan_from_table,
    drain_to_matrix,
    elementwise_pipeline,
    matmul_pipeline,
    prefix_blocks,
    reblock,
)

__all__ = [
    "block_array",
    "block_table_schema",
    "BlockedMatrix",
    "im2col",
    "kernel_matrix",
    "conv2d_direct",
    "conv2d_via_im2col",
    "conv_output_shape",
    "matmul_pipeline",
    "elementwise_pipeline",
    "bias_add_pipeline",
    "block_scan_from_matrix",
    "block_scan_from_table",
    "drain_to_matrix",
    "prefix_blocks",
    "reblock",
]
