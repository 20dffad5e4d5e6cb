"""Spatial rewriting of convolution (im2col).

Section 7.1 of the paper converts the LandCover convolution into a matrix
multiplication: each image is flattened into a patch matrix ``F`` and the
kernel bank into ``K``, so ``conv(X, K) = F × Kᵀ`` — which the
relation-centric engine then runs as a join + aggregation over blocks.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


def conv_output_shape(
    height: int, width: int, kh: int, kw: int, stride: int = 1, padding: int = 0
) -> tuple[int, int]:
    """Spatial output dimensions of a 2-D convolution."""
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"kernel {kh}×{kw} with stride {stride}, padding {padding} does not "
            f"fit input {height}×{width}"
        )
    return out_h, out_w


def patch_windows(
    images: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Every receptive field of an (N, H, W, C) batch, as a read-only
    ``(N, out_h, out_w, kh, kw, C)`` strided view (of a zero-padded copy
    when ``padding``): nothing is gathered until a caller indexes it."""
    if images.ndim != 4:
        raise ShapeError(f"im2col expects (N, H, W, C), got shape {images.shape}")
    batch, height, width, channels = images.shape
    out_h, out_w = conv_output_shape(height, width, kh, kw, stride, padding)
    if padding:
        images = np.pad(
            images,
            ((0, 0), (padding, padding), (padding, padding), (0, 0)),
            mode="constant",
        )
    strides = images.strides
    return np.lib.stride_tricks.as_strided(
        images,
        shape=(batch, out_h, out_w, kh, kw, channels),
        strides=(
            strides[0],
            strides[1] * stride,
            strides[2] * stride,
            strides[1],
            strides[2],
            strides[3],
        ),
        writeable=False,
    )


def im2col(
    images: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Flatten an (N, H, W, C) batch into its patch matrix.

    Returns shape ``(N * out_h * out_w, kh * kw * C)`` where each row is one
    receptive field, images in order and each in row-major patch order
    (a single image is ``image[None]``).  This is the paper's "spatial
    rewriting algorithm" for convolution.
    """
    windows = patch_windows(images, kh, kw, stride, padding)
    return np.ascontiguousarray(windows, dtype=np.float64).reshape(
        -1, kh * kw * images.shape[3]
    )


def kernel_matrix(kernels: np.ndarray) -> np.ndarray:
    """Flatten (out_channels, kh, kw, in_channels) kernels to (out_ch, kh*kw*C)."""
    if kernels.ndim != 4:
        raise ShapeError(
            f"kernels must be (out_ch, kh, kw, in_ch), got shape {kernels.shape}"
        )
    out_channels = kernels.shape[0]
    return kernels.reshape(out_channels, -1).astype(np.float64)


def conv2d_via_im2col(
    image: np.ndarray, kernels: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Convolution as ``F × Kᵀ`` (the rewrite the paper lowers to relations).

    ``image`` is (H, W, C); ``kernels`` is (out_ch, kh, kw, C).
    Returns (out_h, out_w, out_ch).
    """
    __, kh, kw, in_ch = kernels.shape
    if image.shape[2] != in_ch:
        raise ShapeError(
            f"image has {image.shape[2]} channels but kernels expect {in_ch}"
        )
    out_h, out_w = conv_output_shape(
        image.shape[0], image.shape[1], kh, kw, stride, padding
    )
    patches = im2col(image[None], kh, kw, stride, padding)
    flat = patches @ kernel_matrix(kernels).T
    return flat.reshape(out_h, out_w, kernels.shape[0])


def conv2d_direct(
    image: np.ndarray, kernels: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Straightforward nested-loop convolution (reference for tests)."""
    out_ch, kh, kw, in_ch = kernels.shape
    if image.shape[2] != in_ch:
        raise ShapeError(
            f"image has {image.shape[2]} channels but kernels expect {in_ch}"
        )
    out_h, out_w = conv_output_shape(
        image.shape[0], image.shape[1], kh, kw, stride, padding
    )
    if padding:
        image = np.pad(
            image, ((padding, padding), (padding, padding), (0, 0)), mode="constant"
        )
    out = np.zeros((out_h, out_w, out_ch))
    for oc in range(out_ch):
        for i in range(out_h):
            for j in range(out_w):
                window = image[
                    i * stride : i * stride + kh, j * stride : j * stride + kw, :
                ]
                out[i, j, oc] = np.sum(window * kernels[oc])
    return out
