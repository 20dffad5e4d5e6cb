"""The paper's primary contribution: a unified IR over relational and
linear-algebra operators, a rule-based adaptive optimizer that assigns each
operator a DL-centric, UDF-centric, or relation-centric representation, and
co-optimization rules such as model decomposition & push-down."""

from .ir import (
    InferencePlan,
    LinAlgNode,
    LinAlgOp,
    ModelUdfNode,
    PlanStage,
    Representation,
)
from .lowering import lower_model
from .cost import (
    compute_block_bytes,
    compute_block_factor,
    node_flops,
    node_memory_requirement,
    plan_peak_memory,
)
from .optimizer import DeviceAwareOptimizer, RuleBasedOptimizer
from .compiler import AotCompiler, CompiledModel
from .rules import DecomposePushDownRule, decompose_first_layer
from .training import RelationalGradients, RelationalTrainer

__all__ = [
    "Representation",
    "LinAlgOp",
    "LinAlgNode",
    "ModelUdfNode",
    "PlanStage",
    "InferencePlan",
    "lower_model",
    "node_memory_requirement",
    "node_flops",
    "plan_peak_memory",
    "compute_block_bytes",
    "compute_block_factor",
    "RuleBasedOptimizer",
    "DeviceAwareOptimizer",
    "AotCompiler",
    "CompiledModel",
    "DecomposePushDownRule",
    "decompose_first_layer",
    "RelationalTrainer",
    "RelationalGradients",
]
