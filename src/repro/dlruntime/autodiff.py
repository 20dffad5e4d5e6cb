"""Reverse-mode automatic differentiation (the Sec. 6.1 training extension).

A small tape: every op returns an :class:`ADTensor` that remembers its
parents and a closure that propagates the output gradient.  ``backward``
runs the tape in reverse topological order.  The op set covers exactly
what the paper's model zoo needs: matmul, broadcast add, ReLU, sigmoid,
conv2d (through the same im2col rewrite the inference path uses), max
pooling, reshape, and fused softmax + cross-entropy.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ShapeError
from ..tensor.im2col import conv_output_shape, im2col


class ADTensor:
    """A node in the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: np.ndarray,
        requires_grad: bool = False,
        parents: tuple["ADTensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Propagate gradients from this tensor back through the tape."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    "backward() without an explicit gradient requires a scalar"
                )
            grad = np.ones_like(self.data)
        order: list[ADTensor] = []
        seen: set[int] = set()

        def topo(node: "ADTensor") -> None:
            if id(node) in seen or not node.requires_grad:
                return
            seen.add(id(node))
            for parent in node._parents:
                topo(parent)
            order.append(node)

        topo(self)
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- ops ---------------------------------------------------------------

    def matmul(self, other: "ADTensor") -> "ADTensor":
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return ADTensor(out_data, parents=(self, other), backward=backward, name="matmul")

    def add(self, other: "ADTensor") -> "ADTensor":
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return ADTensor(out_data, parents=(self, other), backward=backward, name="add")

    def relu(self) -> "ADTensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return ADTensor(out_data, parents=(self,), backward=backward, name="relu")

    def sigmoid(self) -> "ADTensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return ADTensor(out_data, parents=(self,), backward=backward, name="sigmoid")

    def reshape(self, shape: tuple[int, ...]) -> "ADTensor":
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return ADTensor(out_data, parents=(self,), backward=backward, name="reshape")

    def conv2d(self, kernels: "ADTensor", stride: int = 1, padding: int = 0) -> "ADTensor":
        """Batched convolution: self is (N, H, W, C), kernels (O, kh, kw, C)."""
        batch, height, width, in_ch = self.data.shape
        out_ch, kh, kw, k_in = kernels.data.shape
        if in_ch != k_in:
            raise ShapeError(
                f"conv2d channel mismatch: input has {in_ch}, kernels expect {k_in}"
            )
        out_h, out_w = conv_output_shape(height, width, kh, kw, stride, padding)
        patches = im2col(self.data, kh, kw, stride, padding)  # (N*oh*ow, kh*kw*C)
        kernel_flat = kernels.data.reshape(out_ch, -1)
        out_flat = patches @ kernel_flat.T
        out_data = out_flat.reshape(batch, out_h, out_w, out_ch)

        def backward(grad: np.ndarray) -> None:
            grad_flat = grad.reshape(-1, out_ch)
            if kernels.requires_grad:
                kernels._accumulate((grad_flat.T @ patches).reshape(kernels.data.shape))
            if self.requires_grad:
                grad_patches = grad_flat @ kernel_flat
                self._accumulate(
                    _batch_col2im(
                        grad_patches,
                        (batch, height, width, in_ch),
                        kh,
                        kw,
                        stride,
                        padding,
                    )
                )

        return ADTensor(
            out_data, parents=(self, kernels), backward=backward, name="conv2d"
        )

    def maxpool2d(self, pool: int = 2) -> "ADTensor":
        """(N, H, W, C) max pooling with stride == pool size."""
        batch, height, width, channels = self.data.shape
        out_h, out_w = height // pool, width // pool
        cropped = self.data[:, : out_h * pool, : out_w * pool, :]
        windows = cropped.reshape(batch, out_h, pool, out_w, pool, channels)
        out_data = windows.max(axis=(2, 4))

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            mask = windows == out_data[:, :, None, :, None, :]
            # Ties share the gradient, which is acceptable for training.
            grad_windows = mask * grad[:, :, None, :, None, :]
            grad_full = np.zeros_like(self.data)
            grad_full[:, : out_h * pool, : out_w * pool, :] = grad_windows.reshape(
                batch, out_h * pool, out_w * pool, channels
            )
            self._accumulate(grad_full)

        return ADTensor(out_data, parents=(self,), backward=backward, name="maxpool2d")

    def softmax_cross_entropy(self, labels: np.ndarray) -> "ADTensor":
        """Fused row softmax + mean cross-entropy against integer labels."""
        logits = self.data
        labels = np.asarray(labels)
        if logits.ndim != 2:
            raise ShapeError("softmax_cross_entropy expects (batch, classes) logits")
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        batch = logits.shape[0]
        losses = -np.log(probs[np.arange(batch), labels] + 1e-12)
        out_data = np.array(losses.mean())

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                delta = probs.copy()
                delta[np.arange(batch), labels] -= 1.0
                self._accumulate(float(grad) * delta / batch)

        return ADTensor(
            out_data, parents=(self,), backward=backward, name="softmax_xent"
        )


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to a broadcast operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _batch_col2im(
    grad_patches: np.ndarray,
    image_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter patch gradients back to image space (inverse of im2col)."""
    batch, height, width, channels = image_shape
    out_h, out_w = conv_output_shape(height, width, kh, kw, stride, padding)
    padded = np.zeros((batch, height + 2 * padding, width + 2 * padding, channels))
    grads = grad_patches.reshape(batch, out_h, out_w, kh, kw, channels)
    for i in range(kh):
        for j in range(kw):
            padded[
                :,
                i : i + out_h * stride : stride,
                j : j + out_w * stride : stride,
                :,
            ] += grads[:, :, :, i, j, :]
    if padding:
        return padded[:, padding:-padding, padding:-padding, :]
    return padded
