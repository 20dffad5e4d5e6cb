import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.tensor import (
    conv2d_direct,
    conv2d_via_im2col,
    conv_output_shape,
    im2col,
)
from repro.tensor.im2col import kernel_matrix


def test_conv_output_shape():
    assert conv_output_shape(112, 112, 1, 1) == (112, 112)
    assert conv_output_shape(5, 5, 3, 3) == (3, 3)
    assert conv_output_shape(5, 5, 3, 3, stride=2) == (2, 2)
    assert conv_output_shape(5, 5, 3, 3, padding=1) == (5, 5)
    with pytest.raises(ShapeError):
        conv_output_shape(2, 2, 5, 5)


def test_im2col_1x1_kernel_is_reshape(rng):
    image = rng.normal(size=(4, 5, 3))
    patches = im2col(image[None], 1, 1)
    np.testing.assert_array_equal(patches, image.reshape(20, 3))


def test_im2col_patch_contents(rng):
    image = np.arange(16, dtype=float).reshape(4, 4, 1)
    patches = im2col(image[None], 2, 2)
    assert patches.shape == (9, 4)
    np.testing.assert_array_equal(patches[0], [0, 1, 4, 5])
    np.testing.assert_array_equal(patches[-1], [10, 11, 14, 15])


def test_kernel_matrix_shape(rng):
    kernels = rng.normal(size=(8, 3, 3, 2))
    assert kernel_matrix(kernels).shape == (8, 18)


def test_conv_via_im2col_matches_direct(rng):
    image = rng.normal(size=(7, 6, 3))
    kernels = rng.normal(size=(4, 3, 3, 3))
    fast = conv2d_via_im2col(image, kernels)
    slow = conv2d_direct(image, kernels)
    np.testing.assert_allclose(fast, slow, atol=1e-10)


def test_conv_with_stride_and_padding(rng):
    image = rng.normal(size=(8, 8, 2))
    kernels = rng.normal(size=(3, 3, 3, 2))
    fast = conv2d_via_im2col(image, kernels, stride=2, padding=1)
    slow = conv2d_direct(image, kernels, stride=2, padding=1)
    assert fast.shape == (4, 4, 3)
    np.testing.assert_allclose(fast, slow, atol=1e-10)


def test_channel_mismatch_raises(rng):
    with pytest.raises(ShapeError):
        conv2d_via_im2col(rng.normal(size=(4, 4, 2)), rng.normal(size=(1, 1, 1, 3)))


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(3, 9),
    w=st.integers(3, 9),
    c=st.integers(1, 3),
    kh=st.integers(1, 3),
    kw=st.integers(1, 3),
    out_ch=st.integers(1, 4),
    stride=st.integers(1, 2),
    padding=st.integers(0, 1),
    seed=st.integers(0, 100),
)
def test_property_im2col_conv_equals_direct(h, w, c, kh, kw, out_ch, stride, padding, seed):
    rng = np.random.default_rng(seed)
    image = rng.normal(size=(h, w, c))
    kernels = rng.normal(size=(out_ch, kh, kw, c))
    fast = conv2d_via_im2col(image, kernels, stride=stride, padding=padding)
    slow = conv2d_direct(image, kernels, stride=stride, padding=padding)
    np.testing.assert_allclose(fast, slow, atol=1e-10)
