"""Layers and models.

A :class:`Model` is an ordered stack of layers with named parameters.  The
same parameter arrays serve three execution paths:

* ``forward`` — whole-tensor numpy inference with memory accounting (used
  by the DL-centric stand-in and the UDF-centric engine),
* ``forward_ad`` — the autodiff tape (training extension, Sec. 6.1),
* the relation-centric engine, which reads the parameters through
  :meth:`Model.layers` and lowers each layer to join+aggregation pipelines.

Layouts: vector inputs are ``(batch, features)``; image inputs are
``(batch, H, W, C)``.  Linear weights are ``(in_features, out_features)``
so that ``y = x @ W + b`` (the paper's ``X × Wᵀ`` with ``W`` stored
pre-transposed).
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from ..errors import ModelError, ShapeError
from ..tensor.im2col import conv_output_shape, im2col
from .autodiff import ADTensor
from .memory import MemoryBudget


class Layer:
    """Base layer: shape algebra, parameters, and both forward paths."""

    name: str = "layer"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward_ad(self, x: ADTensor) -> ADTensor:
        raise NotImplementedError

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Per-sample output shape given a per-sample input shape."""
        raise NotImplementedError

    def parameters(self) -> dict[str, ADTensor]:
        return {}

    @property
    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters().values())

    @property
    def param_bytes(self) -> int:
        return sum(p.data.nbytes for p in self.parameters().values())

    def flops(self, input_shape: tuple[int, ...]) -> int:
        """Per-sample floating point operations."""
        return int(np.prod(self.output_shape(input_shape)))

    def describe(self) -> str:
        return type(self).__name__


class Linear(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        weight: np.ndarray | None = None,
        bias: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        name: str = "linear",
    ):
        if in_features <= 0 or out_features <= 0:
            raise ModelError("Linear dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        if weight is None:
            rng = rng if rng is not None else np.random.default_rng(0)
            scale = math.sqrt(2.0 / in_features)
            weight = rng.normal(scale=scale, size=(in_features, out_features))
        if bias is None:
            bias = np.zeros(out_features)
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.shape != (in_features, out_features):
            raise ShapeError(
                f"Linear weight must be ({in_features}, {out_features}), "
                f"got {weight.shape}"
            )
        if bias.shape != (out_features,):
            raise ShapeError(f"Linear bias must be ({out_features},), got {bias.shape}")
        self.weight = ADTensor(weight, requires_grad=True, name=f"{name}.weight")
        self.bias = ADTensor(bias, requires_grad=True, name=f"{name}.bias")

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name} expects (batch, {self.in_features}), got {x.shape}"
            )
        out = x @ self.weight.data
        out += self.bias.data  # one output buffer per batch, not two (see _forward)
        return out

    def forward_ad(self, x: ADTensor) -> ADTensor:
        return x.matmul(self.weight).add(self.bias)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if input_shape != (self.in_features,):
            raise ShapeError(
                f"{self.name} expects per-sample shape ({self.in_features},), "
                f"got {input_shape}"
            )
        return (self.out_features,)

    def parameters(self) -> dict[str, ADTensor]:
        return {"weight": self.weight, "bias": self.bias}

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 2 * self.in_features * self.out_features

    def describe(self) -> str:
        return f"Linear({self.in_features} -> {self.out_features})"


class ReLU(Layer):
    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def forward_ad(self, x: ADTensor) -> ADTensor:
        return x.relu()

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Sigmoid(Layer):
    name = "sigmoid"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))

    def forward_ad(self, x: ADTensor) -> ADTensor:
        return x.sigmoid()

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Softmax(Layer):
    """Row-wise softmax over the last axis (inference only)."""

    name = "softmax"

    def forward(self, x: np.ndarray) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def forward_ad(self, x: ADTensor) -> ADTensor:
        # Training uses the fused softmax_cross_entropy on logits instead.
        raise ModelError(
            "Softmax has no standalone autodiff path; train on logits with "
            "softmax_cross_entropy"
        )

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Conv2d(Layer):
    """2-D convolution over (batch, H, W, C) inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: tuple[int, int],
        stride: int = 1,
        padding: int = 0,
        kernels: np.ndarray | None = None,
        bias: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        name: str = "conv",
    ):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.name = name
        kh, kw = kernel_size
        if kernels is None:
            rng = rng if rng is not None else np.random.default_rng(0)
            scale = math.sqrt(2.0 / (kh * kw * in_channels))
            kernels = rng.normal(scale=scale, size=(out_channels, kh, kw, in_channels))
        if bias is None:
            bias = np.zeros(out_channels)
        kernels = np.asarray(kernels, dtype=np.float64)
        if kernels.shape != (out_channels, kh, kw, in_channels):
            raise ShapeError(
                f"kernels must be ({out_channels}, {kh}, {kw}, {in_channels}), "
                f"got {kernels.shape}"
            )
        self.kernels = ADTensor(kernels, requires_grad=True, name=f"{name}.kernels")
        self.bias = ADTensor(
            np.asarray(bias, dtype=np.float64), requires_grad=True, name=f"{name}.bias"
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ShapeError(
                f"{self.name} expects (batch, H, W, {self.in_channels}), got {x.shape}"
            )
        kh, kw = self.kernel_size
        batch = x.shape[0]
        out_h, out_w = conv_output_shape(
            x.shape[1], x.shape[2], kh, kw, self.stride, self.padding
        )
        patches = im2col(x, kh, kw, self.stride, self.padding)
        flat = patches @ self.kernels.data.reshape(self.out_channels, -1).T
        return flat.reshape(batch, out_h, out_w, self.out_channels) + self.bias.data

    def forward_ad(self, x: ADTensor) -> ADTensor:
        return x.conv2d(self.kernels, self.stride, self.padding).add(self.bias)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3 or input_shape[2] != self.in_channels:
            raise ShapeError(
                f"{self.name} expects per-sample (H, W, {self.in_channels}), "
                f"got {input_shape}"
            )
        kh, kw = self.kernel_size
        out_h, out_w = conv_output_shape(
            input_shape[0], input_shape[1], kh, kw, self.stride, self.padding
        )
        return (out_h, out_w, self.out_channels)

    def parameters(self) -> dict[str, ADTensor]:
        return {"kernels": self.kernels, "bias": self.bias}

    def flops(self, input_shape: tuple[int, ...]) -> int:
        out_h, out_w, __ = self.output_shape(input_shape)
        kh, kw = self.kernel_size
        return 2 * out_h * out_w * kh * kw * self.in_channels * self.out_channels

    def describe(self) -> str:
        kh, kw = self.kernel_size
        return (
            f"Conv2d({self.in_channels} -> {self.out_channels}, {kh}x{kw}, "
            f"stride={self.stride}, padding={self.padding})"
        )


class MaxPool2d(Layer):
    def __init__(self, pool: int = 2, name: str = "maxpool"):
        if pool < 1:
            raise ModelError("pool size must be >= 1")
        self.pool = pool
        self.name = name

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, height, width, channels = x.shape
        pool = self.pool
        out_h, out_w = height // pool, width // pool
        cropped = x[:, : out_h * pool, : out_w * pool, :]
        return cropped.reshape(batch, out_h, pool, out_w, pool, channels).max(
            axis=(2, 4)
        )

    def forward_ad(self, x: ADTensor) -> ADTensor:
        return x.maxpool2d(self.pool)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        height, width, channels = input_shape
        return (height // self.pool, width // self.pool, channels)

    def describe(self) -> str:
        return f"MaxPool2d({self.pool})"


class Flatten(Layer):
    name = "flatten"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def forward_ad(self, x: ADTensor) -> ADTensor:
        return x.reshape((x.shape[0], -1))

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)


def _forward(layer: Layer, current: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``layer.forward(current)`` inside a pass whose input is ``x``.

    A ReLU overwrites an activation the pass itself allocated (not ``x``,
    not a view), so a batch needs one buffer per hidden layer.  Each extra
    buffer a batch frees is memory the allocator may hand back to the OS
    and fault in again on the next batch.
    """
    if isinstance(layer, ReLU) and current is not x and current.base is None:
        return np.maximum(current, 0.0, out=current)
    return layer.forward(current)


class Model:
    """A named sequential stack of layers plus shape metadata."""

    def __init__(self, name: str, layers: Sequence[Layer], input_shape: tuple[int, ...]):
        if not layers:
            raise ModelError("a model needs at least one layer")
        self.name = name
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        # Validate the shape chain eagerly so bad stacks fail at build time.
        shape = self.input_shape
        self._shapes = [shape]
        for layer in self.layers:
            shape = layer.output_shape(shape)
            self._shapes.append(shape)
        # A parameterised layer's name keys its stored weight table.
        positions: dict[str, int] = {}
        for i, layer in enumerate(self.layers):
            if not layer.parameters():
                continue
            first = positions.setdefault(layer.name, i)
            if first != i:
                raise ModelError(
                    f"model {name!r}: layers {first} and {i} are both named "
                    f"{layer.name!r}; parameterised layers need unique names"
                )

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self._shapes[-1]

    @property
    def layer_shapes(self) -> list[tuple[int, ...]]:
        """Per-sample shapes: [input, after layer 0, after layer 1, ...]."""
        return list(self._shapes)

    @property
    def param_count(self) -> int:
        return sum(layer.param_count for layer in self.layers)

    @property
    def param_bytes(self) -> int:
        return sum(layer.param_bytes for layer in self.layers)

    def parameters(self) -> Iterator[tuple[str, ADTensor]]:
        for i, layer in enumerate(self.layers):
            for pname, tensor in layer.parameters().items():
                yield f"{layer.name or i}.{pname}", tensor

    def flops(self, batch_size: int = 1) -> int:
        total = 0
        for layer, shape in zip(self.layers, self._shapes):
            total += layer.flops(shape)
        return total * batch_size

    def forward(
        self,
        x: np.ndarray,
        budget: MemoryBudget | None = None,
        eager_free: bool = True,
        charge_scale: float = 1.0,
        checkpoint=None,
    ) -> np.ndarray:
        """Whole-tensor inference with optional memory accounting.

        With a budget, the pass charges the resident weights, the input,
        and each activation.  ``eager_free=True`` models a framework that
        releases an activation as soon as its consumer has run;
        ``eager_free=False`` models a naive single-UDF implementation that
        keeps every intermediate alive until the UDF returns — the reason
        the UDF-centric column of the paper's Table 3 OOMs earlier than
        TensorFlow does.

        ``charge_scale`` scales every charge: the in-database engines run
        float64 (scale 1.0), while framework stand-ins charge the float32
        footprint the real frameworks would use (scale 0.5, or 0.75 for
        the eager-mode stand-in that holds extra buffers).

        ``checkpoint`` is called before each layer (the executor's
        cooperative stage-deadline hook); whatever it raises unwinds
        through the charge rollback below.
        """
        if budget is None:
            out = x
            for layer in self.layers:
                if checkpoint is not None:
                    checkpoint()
                out = _forward(layer, out, x)
            return out

        def scaled(nbytes: int) -> int:
            return int(nbytes * charge_scale)

        charged: list[int] = []
        weights = scaled(self.param_bytes)
        budget.allocate(weights, tag=f"{self.name}.weights")
        try:
            current = np.asarray(x, dtype=np.float64)
            current_bytes = budget.allocate(
                scaled(current.nbytes), tag=f"{self.name}.input"
            )
            charged.append(current_bytes)
            for layer in self.layers:
                if checkpoint is not None:
                    checkpoint()
                out = _forward(layer, current, x)
                out_bytes = budget.allocate(
                    scaled(out.nbytes), tag=f"{self.name}.{layer.name}"
                )
                charged.append(out_bytes)
                if eager_free:
                    budget.release(current_bytes)
                    charged.pop(-2)
                current = out
                current_bytes = out_bytes
            return current
        finally:
            for nbytes in charged:
                budget.release(nbytes)
            budget.release(weights)

    def forward_ad(self, x: np.ndarray) -> ADTensor:
        """Run the autodiff tape up to the logits (training path)."""
        out = ADTensor(np.asarray(x, dtype=np.float64))
        for layer in self.layers:
            if isinstance(layer, Softmax):
                # Training losses fuse softmax; skip the inference-only layer.
                continue
            out = layer.forward_ad(out)
        return out

    def predict(self, x: np.ndarray, budget: MemoryBudget | None = None) -> np.ndarray:
        """Class predictions (argmax over the final axis)."""
        return np.argmax(self.forward(x, budget=budget), axis=-1)

    def describe(self) -> str:
        lines = [f"Model {self.name!r} (input {self.input_shape})"]
        for layer, shape in zip(self.layers, self._shapes[1:]):
            lines.append(f"  {layer.describe()} -> {shape}")
        lines.append(f"  parameters: {self.param_count:,}")
        return "\n".join(lines)
