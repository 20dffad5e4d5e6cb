import numpy as np
import pytest

from repro.errors import ModelError
from repro.models import (
    MODEL_ZOO,
    amazon_14k_fc,
    bosch_ffnn,
    build_model,
    cache_cnn,
    cache_ffnn,
    deepbench_conv1,
    encoder_fc,
    fraud_fc_256,
    fraud_fc_512,
    landcover,
    store_model_blocks,
    zoo_entries,
)
from repro.models.store import load_model_weights, weight_block_table
from repro.storage import BufferPool, Catalog, InMemoryDiskManager, VersionRecord
from repro.tensor import BlockedMatrix


def test_table1_shapes_match_paper():
    """The model zoo reproduces Table 1's layer sizes exactly."""
    cases = {
        fraud_fc_256(): (28, 256, 2),
        fraud_fc_512(): (28, 512, 2),
        encoder_fc(): (76, 3072, 768),
        amazon_14k_fc(): (597_540, 1024, 14_588),
    }
    for model, (n_in, hidden, n_out) in cases.items():
        fc1, __, fc2, __ = model.layers
        assert fc1.in_features == n_in
        assert fc1.out_features == hidden
        assert fc2.out_features == n_out
        assert model.input_shape == (n_in,)


def test_table2_shapes_match_paper():
    conv1 = deepbench_conv1()
    assert conv1.input_shape == (112, 112, 64)
    assert conv1.layers[0].kernels.data.shape == (64, 1, 1, 64)
    lc = landcover()
    assert lc.input_shape == (2500, 2500, 3)
    assert lc.layers[0].kernels.data.shape == (2048, 1, 1, 3)


def test_scaled_amazon_keeps_structure():
    model = amazon_14k_fc(scale=0.01)
    fc1 = model.layers[0]
    assert fc1.in_features == 5975
    assert fc1.out_features == 1024
    assert model.layers[2].out_features == 146
    with pytest.raises(ModelError):
        amazon_14k_fc(scale=2.0)


def test_cache_models_run(rng):
    cnn = cache_cnn()
    out = cnn.forward(rng.normal(size=(2, 28, 28, 1)))
    assert out.shape == (2, 10)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(2))
    ffnn = cache_ffnn()
    assert [l.out_features for l in ffnn.layers if hasattr(l, "out_features")] == [
        128, 1024, 2048, 64, 10,
    ]


def test_bosch_model_shape():
    model = bosch_ffnn()
    assert model.layers[0].weight.data.shape == (968, 256)


def test_zoo_registry_and_builders():
    assert set(e.table for e in zoo_entries()) == {"table1", "table2", "sec7.2"}
    assert len(list(zoo_entries("table1"))) == 4
    model = build_model("fraud-fc-256")
    assert model.name == "fraud-fc-256"
    scaled = build_model("amazon-14k-fc", scale=0.01)
    assert scaled.layers[0].in_features == 5975
    with pytest.raises(ModelError):
        build_model("nonexistent")
    assert MODEL_ZOO["landcover"].scalable


def test_store_model_blocks_round_trip(rng):
    pool = BufferPool(InMemoryDiskManager(16 * 1024), capacity_pages=64)
    catalog = Catalog(pool)
    model = fraud_fc_256()
    info = VersionRecord("fraud", model)
    tables = store_model_blocks(catalog, info, (32, 32))
    assert set(tables) == {"fc1", "fc2"}
    fc1_table = catalog.get_table(tables["fc1"])
    loaded = BlockedMatrix.load(fc1_table, (28, 256), (32, 32))
    np.testing.assert_array_equal(loaded.to_dense(), model.layers[0].weight.data)
    # Idempotent.
    again = store_model_blocks(catalog, info, (32, 32))
    assert again == tables


def test_load_model_weights_rejects_unknown_and_weightless_layers():
    catalog = Catalog(BufferPool(InMemoryDiskManager(16 * 1024), capacity_pages=64))
    info = VersionRecord("fraud", fraud_fc_256())
    store_model_blocks(catalog, info, (32, 32))
    loaded = load_model_weights(catalog, info, "fc2", (32, 32))
    np.testing.assert_array_equal(loaded.to_dense(), info.model.layers[2].weight.data)
    with pytest.raises(ValueError, match="no layer 'fc9'"):
        load_model_weights(catalog, info, "fc9", (32, 32))
    with pytest.raises(ValueError, match="no stored weight matrix"):
        load_model_weights(catalog, info, info.model.layers[1].name, (32, 32))


def test_weight_block_table_lazy_creation(rng):
    pool = BufferPool(InMemoryDiskManager(16 * 1024), capacity_pages=64)
    catalog = Catalog(pool)
    model = deepbench_conv1(scale=0.1)
    info = VersionRecord("db1", model)
    conv = model.layers[0]
    table = weight_block_table(catalog, info, conv, (16, 16))
    out_ch = conv.out_channels
    loaded = BlockedMatrix.load(
        table, (conv.kernels.data.size // out_ch, out_ch), (16, 16)
    )
    expected = conv.kernels.data.reshape(out_ch, -1).T
    np.testing.assert_array_equal(loaded.to_dense(), expected)
