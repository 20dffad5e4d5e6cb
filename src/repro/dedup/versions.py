"""Multi-version models with SLA-driven selection (Sec. 4.1).

The storage optimizer creates several versions of one model — full
precision, quantized, pruned — each with a different size / latency /
accuracy point.  At query time the optimizer picks the cheapest version
whose accuracy satisfies the SLA, exactly the accuracy-aware query
optimization the paper proposes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..dlruntime.layers import Conv2d, Linear, Model
from ..errors import ModelError, SlaViolationError
from .prune import magnitude_prune
from .quantize import dequantize, quantize

@dataclass
class ModelVersion:
    """One size/latency/accuracy point of a model."""

    name: str
    model: Model
    size_bytes: int
    accuracy: float
    kind: str  # "full", "quantized", "pruned"
    detail: str = ""


def _transform_model(model: Model, transform: Callable[[np.ndarray], np.ndarray], suffix: str) -> Model:
    """Deep-copy a model with every weight matrix transformed."""
    clone = copy.deepcopy(model)
    clone.name = f"{model.name}-{suffix}"
    for layer in clone.layers:
        if isinstance(layer, Linear):
            layer.weight.data = transform(layer.weight.data)
        elif isinstance(layer, Conv2d):
            layer.kernels.data = transform(layer.kernels.data)
    return clone


class ModelVersionManager:
    """Creates and selects model versions under accuracy SLAs."""

    def __init__(
        self,
        model: Model,
        accuracy_fn: Callable[[Model], float],
    ):
        self._base = model
        self._accuracy_fn = accuracy_fn
        base_accuracy = accuracy_fn(model)
        self._versions: dict[str, ModelVersion] = {
            "full": ModelVersion(
                name="full",
                model=model,
                size_bytes=model.param_bytes,
                accuracy=base_accuracy,
                kind="full",
            )
        }

    @property
    def versions(self) -> dict[str, ModelVersion]:
        return dict(self._versions)

    @property
    def base_accuracy(self) -> float:
        return self._versions["full"].accuracy

    def add_quantized(self, bits: int) -> ModelVersion:
        """Create a ``bits``-bit quantized version (stored dequantized;
        the size reflects the packed representation on disk)."""
        quantized_bytes = 0

        def transform(weights: np.ndarray) -> np.ndarray:
            nonlocal quantized_bytes
            q = quantize(weights, bits)
            quantized_bytes += q.nbytes
            return dequantize(q)

        clone = _transform_model(self._base, transform, f"int{bits}")
        version = ModelVersion(
            name=f"int{bits}",
            model=clone,
            size_bytes=quantized_bytes,
            accuracy=self._accuracy_fn(clone),
            kind="quantized",
            detail=f"{bits}-bit uniform affine",
        )
        self._versions[version.name] = version
        return version

    def add_pruned(self, sparsity_level: float) -> ModelVersion:
        clone = derive_version(self._base, prune_sparsity=sparsity_level)
        # Sparse storage cost: values + 4-byte indices for the survivors.
        survivors = sum(
            int(np.count_nonzero(layer.weight.data))
            for layer in clone.layers
            if isinstance(layer, Linear)
        ) + sum(
            int(np.count_nonzero(layer.kernels.data))
            for layer in clone.layers
            if isinstance(layer, Conv2d)
        )
        version = ModelVersion(
            name=f"p{int(sparsity_level * 100)}",
            model=clone,
            size_bytes=survivors * 12,
            accuracy=self._accuracy_fn(clone),
            kind="pruned",
            detail=f"{sparsity_level:.0%} magnitude pruning",
        )
        self._versions[version.name] = version
        return version

    def select(self, min_accuracy: float) -> ModelVersion:
        """Smallest version meeting the accuracy SLA."""
        feasible = [
            v for v in self._versions.values() if v.accuracy >= min_accuracy
        ]
        if not feasible:
            raise SlaViolationError(
                f"no model version reaches accuracy {min_accuracy:.2%}; best is "
                f"{max(v.accuracy for v in self._versions.values()):.2%}"
            )
        return min(feasible, key=lambda v: v.size_bytes)

    def get(self, name: str) -> ModelVersion:
        if name not in self._versions:
            raise ModelError(f"no version named {name!r}")
        return self._versions[name]


def derive_version(
    base: Model,
    quantize_bits: int | None = None,
    prune_sparsity: float | None = None,
) -> Model:
    """Derive a deployable model variant from a base model's weights.

    The lifecycle tier's ``register_model_version`` prepare path uses
    this when given ``quantize_bits`` / ``prune_sparsity`` instead of an
    explicit model.
    """
    if (quantize_bits is None) == (prune_sparsity is None):
        raise ModelError(
            "specify exactly one of quantize_bits or prune_sparsity "
            "(or pass an explicit model)"
        )
    if quantize_bits is not None:
        return _transform_model(
            base,
            lambda w: dequantize(quantize(w, quantize_bits)),
            f"int{quantize_bits}",
        )
    return _transform_model(
        base,
        lambda w: magnitude_prune(w, prune_sparsity),
        f"p{int(prune_sparsity * 100)}",
    )
