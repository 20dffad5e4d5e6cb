import numpy as np
import pytest

from repro.dlruntime import (
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    MemoryBudget,
    Model,
    ReLU,
    Sigmoid,
    Softmax,
)
from repro.errors import ModelError, OutOfMemoryError, ShapeError
from repro.tensor import conv2d_direct


def small_ffnn(rng):
    return Model(
        "ffnn",
        [
            Linear(4, 8, rng=rng, name="fc1"),
            ReLU(),
            Linear(8, 3, rng=rng, name="fc2"),
            Softmax(),
        ],
        input_shape=(4,),
    )


def test_linear_forward_matches_numpy(rng):
    w = rng.normal(size=(5, 3))
    b = rng.normal(size=3)
    layer = Linear(5, 3, weight=w, bias=b)
    x = rng.normal(size=(7, 5))
    np.testing.assert_allclose(layer.forward(x), x @ w + b)


def test_linear_shape_validation(rng):
    with pytest.raises(ShapeError):
        Linear(4, 2, weight=np.zeros((2, 4)))
    layer = Linear(4, 2, rng=rng)
    with pytest.raises(ShapeError):
        layer.forward(rng.normal(size=(3, 5)))


def test_model_shape_chain_validated(rng):
    with pytest.raises(ShapeError):
        Model("bad", [Linear(4, 8, rng=rng), Linear(9, 2, rng=rng)], input_shape=(4,))


def test_model_rejects_parameterised_layers_sharing_a_name(rng):
    """A parameterised layer's name keys its weight table: two ``linear``s
    would silently share one."""
    with pytest.raises(ModelError, match=r"layers 0 and 2 .*'linear'"):
        Model("dup", [Linear(8, 8, rng=rng), ReLU(), Linear(8, 8, rng=rng)], (8,))
    Model("ok", [Linear(8, 8, rng=rng, name="a"), ReLU(), ReLU(), Linear(8, 8, rng=rng)], (8,))


def test_softmax_rows_sum_to_one(rng):
    model = small_ffnn(rng)
    out = model.forward(rng.normal(size=(6, 4)))
    assert out.shape == (6, 3)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(6))


def test_conv2d_matches_direct_reference(rng):
    kernels = rng.normal(size=(4, 3, 3, 2))
    layer = Conv2d(2, 4, (3, 3), kernels=kernels, bias=np.zeros(4))
    x = rng.normal(size=(2, 6, 7, 2))
    out = layer.forward(x)
    for i in range(2):
        np.testing.assert_allclose(out[i], conv2d_direct(x[i], kernels), atol=1e-10)


def test_conv2d_bias_added(rng):
    bias = np.array([1.0, -2.0])
    layer = Conv2d(1, 2, (1, 1), kernels=np.zeros((2, 1, 1, 1)), bias=bias)
    out = layer.forward(np.ones((1, 3, 3, 1)))
    np.testing.assert_allclose(out[0, 0, 0], bias)


def test_maxpool_and_flatten(rng):
    x = rng.normal(size=(2, 4, 4, 3))
    pooled = MaxPool2d(2).forward(x)
    assert pooled.shape == (2, 2, 2, 3)
    assert pooled[0, 0, 0, 0] == x[0, :2, :2, 0].max()
    flat = Flatten().forward(pooled)
    assert flat.shape == (2, 12)


@pytest.mark.parametrize("with_budget", [False, True])
def test_forward_reuses_only_its_own_activations(rng, with_budget):
    """ReLU writes into activations the pass allocated, never into the
    caller's input or a view of it, and the layer-by-layer result holds."""
    x = rng.normal(size=(3, 2, 2, 1))
    layers = [Flatten(), ReLU(), Linear(4, 4, rng=rng), ReLU()]
    model = Model("m", layers, input_shape=(2, 2, 1))
    before = x.copy()
    out = model.forward(x, budget=MemoryBudget(1 << 20) if with_budget else None)
    np.testing.assert_array_equal(x, before)
    reference = before.reshape(3, 4)
    for layer in model.layers[1:]:
        reference = layer.forward(reference)
    np.testing.assert_array_equal(out, reference)


def test_model_param_count(rng):
    model = small_ffnn(rng)
    assert model.param_count == 4 * 8 + 8 + 8 * 3 + 3
    assert model.param_bytes == model.param_count * 8


def test_model_flops_scales_with_batch(rng):
    model = small_ffnn(rng)
    assert model.flops(10) == 10 * model.flops(1)
    assert model.flops(1) >= 2 * 4 * 8 + 2 * 8 * 3


def test_forward_with_budget_charges_and_releases(rng):
    model = small_ffnn(rng)
    budget = MemoryBudget(1 << 20)
    x = rng.normal(size=(16, 4))
    out = model.forward(x, budget=budget)
    assert out.shape == (16, 3)
    assert budget.used == 0  # everything released
    assert budget.peak >= model.param_bytes + x.nbytes


def test_forward_oom_when_weights_exceed_budget(rng):
    model = small_ffnn(rng)
    budget = MemoryBudget(model.param_bytes - 1)
    with pytest.raises(OutOfMemoryError):
        model.forward(rng.normal(size=(4, 4)), budget=budget)
    assert budget.used == 0


def test_eager_free_has_lower_peak_than_keep_all(rng):
    model = Model(
        "deep",
        [Linear(64, 64, rng=rng, name=f"fc{i}") for i in range(6)],
        input_shape=(64,),
    )
    x = rng.normal(size=(128, 64))
    eager = MemoryBudget(1 << 30)
    model.forward(x, budget=eager, eager_free=True)
    lazy = MemoryBudget(1 << 30)
    model.forward(x, budget=lazy, eager_free=False)
    assert lazy.peak > eager.peak


def test_predict_argmax(rng):
    model = small_ffnn(rng)
    x = rng.normal(size=(5, 4))
    preds = model.predict(x)
    np.testing.assert_array_equal(preds, np.argmax(model.forward(x), axis=1))


def test_empty_model_rejected():
    with pytest.raises(ModelError):
        Model("empty", [], input_shape=(4,))


def test_describe_mentions_layers(rng):
    text = small_ffnn(rng).describe()
    assert "Linear(4 -> 8)" in text
    assert "parameters" in text
