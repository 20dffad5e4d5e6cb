"""Cost estimation for the optimizer, the AoT compiler, and the device
allocator.

The memory model is exactly the paper's (Sec. 7.1): an operator's
requirement is the sum of its input, parameter, and output sizes — e.g.
for a matmul with shapes ``m×k`` and ``k×n`` the estimate is
``m·k + k·n + m·n`` elements.  There is no latency model: the optimizer
chooses representations by this estimate alone, and the verdicts of
:class:`~repro.telemetry.audit.PlanAuditor` are advisory.
"""

from __future__ import annotations

import numpy as np

from .ir import InferencePlan, LinAlgNode, Representation

FLOAT_BYTES = 8


def node_memory_requirement(node: LinAlgNode, batch_size: int) -> int:
    """The paper's estimate: (input + parameters + output) bytes."""
    input_elems = batch_size * int(np.prod(node.input_shape))
    output_elems = batch_size * int(np.prod(node.output_shape))
    return (input_elems + output_elems) * FLOAT_BYTES + node.param_bytes


def node_flops(node: LinAlgNode, batch_size: int) -> int:
    """Floating point operations for one batch through one node."""
    return batch_size * node.layer.flops(node.input_shape)


def plan_peak_memory(plan: InferencePlan) -> int:
    """Worst single-operator memory requirement across the plan.

    For UDF- and DL-centric stages this is what the engine must hold at
    once; relation-centric stages are excluded because they run at block
    granularity.
    """
    peak = 0
    for stage in plan.stages:
        if stage.representation is Representation.RELATION_CENTRIC:
            continue
        for node in stage.nodes:
            peak = max(peak, node_memory_requirement(node, plan.batch_size))
    return peak


def compute_block_bytes(side: int, out_features: int, stripe_rows: int) -> int:
    """What multiplying on ``side × side`` compute blocks holds at once: one
    super-row of weights (``side × out_features``) being assembled from
    stored blocks, plus one ``stripe_rows × side`` partial product."""
    return FLOAT_BYTES * side * (out_features + stripe_rows)


def compute_block_factor(
    linear_shapes: list[tuple[int, int]],
    stripe_rows: int,
    floor: int,
    memory_bytes: int,
) -> int:
    """The factor ``f`` by which a relation-centric vector stage coarsens
    the stored ``floor × floor`` weight blocks into compute blocks.

    ``linear_shapes`` holds each Linear's ``(in_features, out_features)``.
    ``f`` is the largest power of two whose side ``f·floor``

    * is at most the widest Linear dimension, rounded up to ``floor``, and
    * keeps :func:`compute_block_bytes` within ``memory_bytes`` for every
      Linear of the stage.

    A stage without a Linear, or one whose floor already misses the
    memory limit, gets ``f = 1``: the stored blocks are multiplied as is.
    """
    if not linear_shapes:
        return 1
    widest = max(max(shape) for shape in linear_shapes)
    max_side = -(-widest // floor) * floor
    widest_out = max(out for __, out in linear_shapes)
    factor = 1
    while (
        2 * factor * floor <= max_side
        and compute_block_bytes(2 * factor * floor, widest_out, stripe_rows)
        <= memory_bytes
    ):
        factor *= 2
    return factor
