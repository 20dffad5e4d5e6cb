"""The Sec. 6.1 extension: backward propagation as relational pipelines.

Gradients computed through transpose / join / SUM_BLOCK pipelines must
match the autodiff tape to machine precision, and relational SGD must
actually learn.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RelationalTrainer
from repro.dlruntime import Conv2d, Linear, Model, ReLU, Softmax
from repro.errors import PlanError
from repro.relational.operators import collect
from repro.tensor import BlockedMatrix, block_scan_from_matrix, drain_to_matrix
from repro.tensor.linalg import (
    column_sum_pipeline,
    elementwise_binary_pipeline,
    transpose_pipeline,
)


def ffnn(rng, in_features=10, hidden=16, classes=3):
    return Model(
        "clf",
        [
            Linear(in_features, hidden, rng=rng, name="fc1"),
            ReLU(),
            Linear(hidden, classes, rng=rng, name="fc2"),
            Softmax(),
        ],
        input_shape=(in_features,),
    )


def autodiff_grads(model, x, labels):
    for __, param in model.parameters():
        param.zero_grad()
    logits = model.forward_ad(x)
    loss = logits.softmax_cross_entropy(labels)
    loss.backward()
    grads = {name: param.grad.copy() for name, param in model.parameters()}
    return float(loss.data), grads


# -- pipeline building blocks -------------------------------------------------


def _scan(matrix):
    return block_scan_from_matrix(matrix, "")


def test_transpose_pipeline_matches_numpy(rng):
    a = rng.normal(size=(7, 11))
    blocked = BlockedMatrix.from_dense(a, (3, 3))
    out = drain_to_matrix(transpose_pipeline(_scan(blocked)), (11, 7), (3, 3))
    np.testing.assert_array_equal(out.to_dense(), a.T)


def test_elementwise_binary_pipeline_relu_mask(rng):
    g = rng.normal(size=(6, 8))
    z = rng.normal(size=(6, 8))
    out = drain_to_matrix(
        elementwise_binary_pipeline(
            _scan(BlockedMatrix.from_dense(g, (4, 4))),
            _scan(BlockedMatrix.from_dense(z, (4, 4))),
            lambda a, b: a * (b > 0),
            "mask",
        ),
        (6, 8),
        (4, 4),
    )
    np.testing.assert_allclose(out.to_dense(), g * (z > 0))


def test_column_sum_pipeline(rng):
    a = rng.normal(size=(9, 7))
    out = drain_to_matrix(
        column_sum_pipeline(_scan(BlockedMatrix.from_dense(a, (4, 3)))),
        (1, 7),
        (1, 3),
    )
    np.testing.assert_allclose(out.to_dense()[0], a.sum(axis=0), atol=1e-12)


# -- full backward pass -------------------------------------------------------


def test_relational_gradients_match_autodiff(rng):
    model = ffnn(rng)
    x = rng.normal(size=(20, 10))
    labels = rng.integers(0, 3, size=20)
    trainer = RelationalTrainer(model, block_shape=(4, 4))
    relational = trainer.compute_gradients(x, labels)
    ad_loss, ad_grads = autodiff_grads(model, x, labels)
    assert relational.loss == pytest.approx(ad_loss, abs=1e-10)
    np.testing.assert_allclose(
        relational.weight_grads["fc1"], ad_grads["fc1.weight"], atol=1e-10
    )
    np.testing.assert_allclose(
        relational.weight_grads["fc2"], ad_grads["fc2.weight"], atol=1e-10
    )
    np.testing.assert_allclose(
        relational.bias_grads["fc1"], ad_grads["fc1.bias"], atol=1e-10
    )
    np.testing.assert_allclose(
        relational.bias_grads["fc2"], ad_grads["fc2.bias"], atol=1e-10
    )


def test_relational_sgd_learns_blobs(rng):
    centers = rng.normal(scale=4.0, size=(3, 10))
    labels = rng.integers(0, 3, size=150)
    x = centers[labels] + rng.normal(scale=0.4, size=(150, 10))
    model = ffnn(rng)
    trainer = RelationalTrainer(model, block_shape=(8, 8))
    losses = [trainer.step(x, labels, lr=0.5) for __ in range(25)]
    assert losses[-1] < losses[0] * 0.5
    accuracy = float((model.predict(x) == labels).mean())
    assert accuracy > 0.9


def test_relational_trainer_rejects_conv(rng):
    conv_model = Model(
        "cnn",
        [Conv2d(1, 2, (3, 3), rng=rng, name="c")],
        input_shape=(8, 8, 1),
    )
    with pytest.raises(PlanError):
        RelationalTrainer(conv_model)
    with pytest.raises(PlanError):
        RelationalTrainer(ffnn(rng), block_shape=(4, 8))


@settings(max_examples=10, deadline=None)
@given(
    batch=st.integers(2, 16),
    in_features=st.integers(2, 12),
    hidden=st.integers(2, 12),
    classes=st.integers(2, 5),
    block=st.integers(2, 6),
    seed=st.integers(0, 100),
)
def test_property_relational_backward_equals_autodiff(
    batch, in_features, hidden, classes, block, seed
):
    rng = np.random.default_rng(seed)
    model = Model(
        "p",
        [
            Linear(in_features, hidden, rng=rng, name="fc1"),
            ReLU(),
            Linear(hidden, classes, rng=rng, name="fc2"),
        ],
        input_shape=(in_features,),
    )
    x = rng.normal(size=(batch, in_features))
    labels = rng.integers(0, classes, size=batch)
    relational = RelationalTrainer(model, block_shape=(block, block)).compute_gradients(
        x, labels
    )
    __, ad_grads = autodiff_grads(model, x, labels)
    np.testing.assert_allclose(
        relational.weight_grads["fc1"], ad_grads["fc1.weight"], atol=1e-9
    )
    np.testing.assert_allclose(
        relational.bias_grads["fc2"], ad_grads["fc2.bias"], atol=1e-9
    )
