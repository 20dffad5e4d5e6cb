"""Relation-centric training (the Sec. 6.1 extension).

The paper leaves open how to extend the relation-centric representation
from inference to training and sketches one answer: implement the
backward computation of each forward operator as fine-grained relational
UDFs scheduled by the engine.  This module does exactly that for FFNN
stacks (Linear / ReLU / Softmax):

* forward: each Linear runs as the usual matmul → join + SUM_BLOCK
  pipeline, ReLU as an element-wise block map; pre-activations are kept
  as block relations;
* backward: ``dW = Xᵀ × dZ`` and ``dX = dZ × Wᵀ`` reuse the same matmul
  pipeline after a relational block *transpose* (a pure map);
  ``db = Σ_rows dZ`` is a block aggregation; the ReLU mask is a
  coordinate-join of two block relations;
* the fused softmax + cross-entropy at the logits is computed in memory
  (its operands are batch × classes, tiny by construction).

Every tensor that scales with the data therefore flows through the same
relational operators as inference — gradients validated against the
autodiff tape to machine precision in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dlruntime.layers import Linear, Model, ReLU, Softmax
from ..errors import PlanError
from ..tensor.blocked import BlockedMatrix
from ..tensor.linalg import (
    bias_add_pipeline,
    block_scan_from_matrix,
    column_sum_pipeline,
    drain_to_matrix,
    elementwise_binary_pipeline,
    elementwise_pipeline,
    matmul_pipeline,
    prefix_blocks,
    transpose_pipeline,
)


@dataclass
class RelationalGradients:
    """Per-layer gradients produced by one relational backward pass."""

    weight_grads: dict[str, np.ndarray]
    bias_grads: dict[str, np.ndarray]
    loss: float


class RelationalTrainer:
    """SGD training where data-sized tensors move as block relations."""

    def __init__(self, model: Model, block_shape: tuple[int, int] = (64, 64)):
        if block_shape[0] != block_shape[1]:
            raise PlanError("relational training requires square blocks")
        for layer in model.layers:
            if not isinstance(layer, (Linear, ReLU, Softmax)):
                raise PlanError(
                    "relational training supports Linear/ReLU/Softmax stacks, "
                    f"got {type(layer).__name__}"
                )
        self.model = model
        self.block_shape = block_shape
        self._linears = [l for l in model.layers if isinstance(l, Linear)]

    # -- forward -----------------------------------------------------------

    def _linear_forward(
        self, x: BlockedMatrix, layer: Linear
    ) -> BlockedMatrix:
        weights = BlockedMatrix.from_dense(layer.weight.data, self.block_shape)
        pipeline = bias_add_pipeline(
            matmul_pipeline(
                block_scan_from_matrix(x, "a"), block_scan_from_matrix(weights, "b")
            ),
            layer.bias.data,
            block_cols=self.block_shape[1],
        )
        return drain_to_matrix(
            pipeline,
            (x.shape[0], layer.out_features),
            self.block_shape,
        )

    # -- one training step -----------------------------------------------

    def compute_gradients(
        self, x: np.ndarray, labels: np.ndarray
    ) -> RelationalGradients:
        """Forward + backward through relational pipelines."""
        batch = x.shape[0]
        activations: list[BlockedMatrix] = [
            BlockedMatrix.from_dense(np.asarray(x, dtype=np.float64), self.block_shape)
        ]
        pre_activations: dict[int, BlockedMatrix] = {}
        current = activations[0]
        for i, layer in enumerate(self.model.layers):
            if isinstance(layer, Linear):
                current = self._linear_forward(current, layer)
                pre_activations[i] = current
            elif isinstance(layer, ReLU):
                current = drain_to_matrix(
                    elementwise_pipeline(
                        block_scan_from_matrix(current, ""),
                        lambda v: np.maximum(v, 0.0),
                        "relu",
                    ),
                    current.shape,
                    self.block_shape,
                )
            # Softmax is folded into the loss below.
            activations.append(current)

        logits = current.to_dense()  # batch × classes: small by construction
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        loss = float(
            -np.log(probs[np.arange(batch), labels] + 1e-12).mean()
        )
        delta = probs.copy()
        delta[np.arange(batch), labels] -= 1.0
        grad = BlockedMatrix.from_dense(delta / batch, self.block_shape)

        weight_grads: dict[str, np.ndarray] = {}
        bias_grads: dict[str, np.ndarray] = {}
        for i in range(len(self.model.layers) - 1, -1, -1):
            layer = self.model.layers[i]
            if isinstance(layer, Softmax):
                continue  # fused into the loss gradient above
            if isinstance(layer, ReLU):
                # dZ = dA ⊙ 1[Z > 0]; Z is the producing Linear's output.
                z = activations[i]
                masked = elementwise_binary_pipeline(
                    block_scan_from_matrix(grad, ""),
                    block_scan_from_matrix(z, ""),
                    lambda g, z_block: g * (z_block > 0),
                    "relu-grad",
                )
                grad = drain_to_matrix(masked, grad.shape, self.block_shape)
                continue
            assert isinstance(layer, Linear)
            x_in = activations[i]
            # dW = Xᵀ × dZ — transpose is a relational map, matmul the
            # usual join + aggregation.
            dw_pipeline = matmul_pipeline(
                prefix_blocks(transpose_pipeline(block_scan_from_matrix(x_in, "")), "a"),
                block_scan_from_matrix(grad, "b"),
            )
            dw = drain_to_matrix(
                dw_pipeline,
                (layer.in_features, layer.out_features),
                self.block_shape,
            ).to_dense()
            db = drain_to_matrix(
                column_sum_pipeline(block_scan_from_matrix(grad, "")),
                (1, layer.out_features),
                (1, self.block_shape[1]),
            ).to_dense()[0]
            weight_grads[layer.name] = dw
            bias_grads[layer.name] = db
            if i > 0:
                # dX = dZ × Wᵀ.
                weights = BlockedMatrix.from_dense(
                    layer.weight.data, self.block_shape
                )
                dx_pipeline = matmul_pipeline(
                    block_scan_from_matrix(grad, "a"),
                    prefix_blocks(
                        transpose_pipeline(block_scan_from_matrix(weights, "")), "b"
                    ),
                )
                grad = drain_to_matrix(
                    dx_pipeline,
                    (batch, layer.in_features),
                    self.block_shape,
                )
        return RelationalGradients(weight_grads, bias_grads, loss)

    def step(self, x: np.ndarray, labels: np.ndarray, lr: float) -> float:
        """One SGD step; returns the batch loss."""
        grads = self.compute_gradients(x, labels)
        for layer in self._linears:
            layer.weight.data -= lr * grads.weight_grads[layer.name]
            layer.bias.data -= lr * grads.bias_grads[layer.name]
        return grads.loss
