import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig, mb
from repro.core import RuleBasedOptimizer
from repro.dlruntime import (
    Connector,
    ExternalRuntime,
    Linear,
    MemoryBudget,
    Model,
    ReLU,
    Sigmoid,
    Softmax,
)
from repro.engines import (
    DlCentricEngine,
    HybridExecutor,
    RelationCentricEngine,
    UdfCentricEngine,
)
from repro.errors import OutOfMemoryError
from repro.models import amazon_14k_fc, fraud_fc_256, landcover
from repro.relational.operators import SeqScan
from repro.storage import BufferPool, Catalog, InMemoryDiskManager, VersionRecord
from repro.data import fraud_schema, fraud_transactions


def make_catalog(page_size=16 * 1024, capacity=64):
    pool = BufferPool(InMemoryDiskManager(page_size), capacity_pages=capacity)
    return Catalog(pool), pool


@pytest.fixture
def config():
    return SystemConfig(
        memory_threshold_bytes=mb(2),
        tensor_block_rows=32,
        tensor_block_cols=32,
    )


def test_udf_engine_matches_reference(rng):
    model = fraud_fc_256()
    x = rng.normal(size=(64, 28))
    engine = UdfCentricEngine(MemoryBudget(mb(64)))
    result = engine.run_model(model, x)
    np.testing.assert_allclose(result.outputs, model.forward(x))
    assert result.peak_memory_bytes > 0
    assert result.engine == "udf-centric"


def test_udf_engine_keeps_intermediates_so_peak_is_higher(rng):
    model = fraud_fc_256()
    x = rng.normal(size=(256, 28))
    naive = UdfCentricEngine(MemoryBudget(mb(64)), eager_free=False)
    eager = UdfCentricEngine(MemoryBudget(mb(64)), eager_free=True)
    assert (
        naive.run_model(model, x).peak_memory_bytes
        > eager.run_model(model, x).peak_memory_bytes
    )


def test_dl_engine_accounts_transfer(rng):
    catalog, __ = make_catalog()
    info = catalog.create_table("tx", fraud_schema())
    features, __, rows = fraud_transactions(300, seed=2)
    for row in rows:
        info.heap.insert(row)
    model = fraud_fc_256()
    engine = DlCentricEngine(
        Connector(), ExternalRuntime("pytorch-sim", MemoryBudget(mb(64)))
    )
    from repro.relational.expressions import ColumnRef
    from repro.relational.operators import Project

    source = Project(
        SeqScan(info), [(ColumnRef(f"f{i}"), f"f{i}") for i in range(28)]
    )
    result = engine.run_from_source(model, source, [f"f{i}" for i in range(28)])
    np.testing.assert_allclose(result.outputs, model.forward(features), atol=1e-12)
    assert result.detail["wire_bytes"] > 300 * 28 * 8
    assert result.detail["transfer_measured_s"] > 0
    assert result.modeled_total_seconds != result.measured_seconds


BLOCK = 32
# Widths that never fill a 32-wide block exactly, so blocks are ragged.
_widths = st.integers(1, 3 * BLOCK).filter(lambda w: w % BLOCK)


@settings(max_examples=25, deadline=None)
@given(
    widths=st.lists(_widths, min_size=2, max_size=4),
    activations=st.lists(
        st.sampled_from([None, ReLU, Sigmoid, Softmax]), min_size=3, max_size=3
    ),
    stripe=st.sampled_from([7, 16, 48]),
    # batch = stripes * stripe + extra: 1, s - 1, s, s + 1 and 2s + 1
    stripes_extra=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]),
    seed=st.integers(0, 2**16),
)
def test_relation_engine_vector_stage_matches_udf(
    widths, activations, stripe, stripes_extra, seed
):
    """Random Linear/ReLU/Sigmoid/Softmax stacks, batches around a stripe."""
    rng = np.random.default_rng(seed)
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        layers.append(Linear(fan_in, fan_out, rng=rng, name=f"fc{i}"))
        if activations[i] is not None:
            layers.append(activations[i]())
    model = Model("stack", layers, input_shape=(widths[0],))
    stripes, extra = stripes_extra
    x = rng.normal(size=(stripes * stripe + extra, widths[0]))
    catalog, __ = make_catalog()
    config = SystemConfig(tensor_block_rows=BLOCK, tensor_block_cols=BLOCK)
    engine = RelationCentricEngine(catalog, config, stripe_rows=stripe)
    result = engine.run_vector_stage(model.layers, x, VersionRecord("stack", model))
    np.testing.assert_allclose(result.outputs, model.forward(x), rtol=1e-6, atol=1e-12)


def test_relation_engine_leaves_input_unchanged(rng, config):
    """Stripes of a narrow input are views of it: no stage may write them."""
    catalog, __ = make_catalog()
    model = Model("m", [ReLU(), Linear(20, 8, rng=rng, name="fc"), ReLU(), Softmax()], (20,))
    x = rng.normal(size=(50, 20))
    before = x.copy()
    engine = RelationCentricEngine(catalog, config, stripe_rows=16)
    result = engine.run_vector_stage(model.layers, x, VersionRecord("m", model))
    np.testing.assert_array_equal(x, before)
    np.testing.assert_allclose(result.outputs, model.forward(before), rtol=1e-6)


def test_relation_engine_bounded_peak_memory(rng, config):
    """Peak accounted memory stays near stripe size, not operator size."""
    catalog, __ = make_catalog(capacity=256)
    model = amazon_14k_fc(scale=0.002)  # 1195 features
    model_info = VersionRecord("amazon", model)
    x = rng.normal(size=(200, model.input_shape[0]))
    engine = RelationCentricEngine(catalog, config, stripe_rows=32)
    result = engine.run_vector_stage(model.layers, x, model_info)
    np.testing.assert_allclose(result.outputs, model.forward(x), atol=1e-8)
    stripe_bytes = 32 * model.input_shape[0] * 8
    assert result.peak_memory_bytes <= 2 * stripe_bytes + 32 * 1024 * 8


def test_relation_engine_spills_weights_larger_than_the_pool(rng):
    """The spill path: weight tables 4× the buffer pool, in 128×128 blocks
    on 64 KiB pages, still give ``Model.forward``'s answer under the
    engine's memory limit."""
    page_size = 64 * 1024
    catalog, pool = make_catalog(page_size=page_size, capacity=12)
    model = Model(
        "wide",
        [
            Linear(512, 512, rng=rng, name="fc0"),
            ReLU(),
            Linear(512, 256, rng=rng, name="fc1"),
        ],
        (512,),
    )
    weight_bytes = sum(layer.weight.data.nbytes for layer in model.layers[::2])
    assert weight_bytes >= 2 * pool.capacity * page_size
    limit = mb(8)
    engine = RelationCentricEngine(
        catalog,
        SystemConfig(tensor_block_rows=128, tensor_block_cols=128),
        budget=MemoryBudget(limit, "relation"),
        stripe_rows=256,
    )
    x = rng.normal(size=(300, 512))
    info = VersionRecord("wide", model)
    engine.run_vector_stage(model.layers, x, info)  # stores the weight tables
    pool.stats.reset()
    result = engine.run_vector_stage(model.layers, x, info)
    np.testing.assert_allclose(result.outputs, model.forward(x), rtol=1e-6)
    assert pool.stats.evictions > 0  # reading the weights spilled
    assert 0 < result.peak_memory_bytes <= limit


def test_relation_engine_conv_stage(rng, config):
    catalog, __ = make_catalog(capacity=256)
    model = landcover(spatial=16, out_channels=8)
    conv = model.layers[0]
    model_info = VersionRecord("lc", model)
    images = rng.normal(size=(2, 16, 16, 3))
    engine = RelationCentricEngine(catalog, config, stripe_rows=64)
    result = engine.run_conv_stage(
        conv, images, model_info, result_table="lc_out"
    )
    assert result.detail["result_table_rows"] > 0
    out = engine.load_conv_result("lc_out", 2, 16, 16, 8)
    np.testing.assert_allclose(out, model.forward(images), atol=1e-9)


@pytest.mark.parametrize("spatial,stripe_rows", [(15, 64), (15, 50), (9, 200)])
def test_relation_engine_conv_result_table_any_geometry(rng, config, spatial, stripe_rows):
    """Stripes that end mid-block, and images whose patch count is not a
    multiple of the block rows, still load back in place."""
    catalog, __ = make_catalog(capacity=256)
    model = landcover(spatial=spatial, out_channels=40)
    conv = model.layers[0]
    images = rng.normal(size=(3, spatial, spatial, 3))
    engine = RelationCentricEngine(catalog, config, stripe_rows=stripe_rows)
    engine.run_conv_stage(conv, images, VersionRecord("lc", model), result_table="out")
    out = engine.load_conv_result("out", 3, spatial, spatial, 40)
    np.testing.assert_allclose(out, model.forward(images), atol=1e-9)


def test_relation_engine_conv_stage_without_a_table_returns_outputs(rng, config):
    catalog, __ = make_catalog(capacity=256)
    model = landcover(spatial=15, out_channels=40)
    images = rng.normal(size=(2, 15, 15, 3))
    engine = RelationCentricEngine(catalog, config, stripe_rows=50)
    info = VersionRecord("lc", model)
    result = engine.run_conv_stage(model.layers[0], images, info)
    np.testing.assert_allclose(result.outputs, model.forward(images), atol=1e-9)
    # The scratch result table is gone; the kernel's block table stays.
    assert [t.name for t in catalog.tables() if "result" in t.name] == []
    # The stage's peak counts the feature map it returns.
    assert result.peak_memory_bytes >= result.outputs.nbytes


def test_hybrid_executes_adaptive_plan_end_to_end(rng, config):
    catalog, __ = make_catalog(capacity=256)
    model = amazon_14k_fc(scale=0.002)
    model_info = VersionRecord("amazon", model)
    plan = RuleBasedOptimizer(
        config.with_options(memory_threshold_bytes=4 * 1195 * 1024)
    ).plan_model(model, batch_size=64)
    executor = HybridExecutor(catalog, config)
    x = rng.normal(size=(64, model.input_shape[0]))
    result = executor.execute(plan, x, model_info)
    np.testing.assert_allclose(result.outputs, model.forward(x), atol=1e-8)
    assert result.engine == "hybrid"


def test_hybrid_single_udf_plan(rng, config):
    catalog, __ = make_catalog()
    model = fraud_fc_256()
    model_info = VersionRecord("fraud", model)
    plan = RuleBasedOptimizer(config).plan_model(model, batch_size=64)
    assert plan.is_single_udf
    executor = HybridExecutor(catalog, config)
    x = rng.normal(size=(64, 28))
    result = executor.execute(plan, x, model_info)
    np.testing.assert_allclose(result.outputs, model.forward(x), atol=1e-12)


def test_hybrid_dl_stage_charges_boundary_wire(rng, config):
    catalog, __ = make_catalog()
    model = fraud_fc_256()
    model_info = VersionRecord("fraud", model)
    plan = RuleBasedOptimizer(config).plan_model(
        model, batch_size=64, force="dl-centric"
    )
    executor = HybridExecutor(catalog, config)
    x = rng.normal(size=(64, 28))
    result = executor.execute(plan, x, model_info)
    np.testing.assert_allclose(result.outputs, model.forward(x), atol=1e-12)
    assert result.modeled_extra_seconds != 0.0


def test_whole_tensor_engines_oom_where_relation_survives(rng):
    """The Table 3 crossover in miniature."""
    config = SystemConfig(
        memory_threshold_bytes=mb(1),
        dl_memory_limit_bytes=mb(5),
        tensor_block_rows=64,
        tensor_block_cols=64,
    )
    catalog, __ = make_catalog(capacity=512)
    # fc1 weights alone are ~9.6 MB float64 (~4.8 MB at the frameworks'
    # float32 scale); with the batch added, both whole-tensor engines
    # exceed the 5 MB budget.
    model = amazon_14k_fc(scale=0.002)
    model_info = VersionRecord("amazon", model)
    x = rng.normal(size=(128, model.input_shape[0]))

    udf = UdfCentricEngine(MemoryBudget(config.dl_memory_limit_bytes))
    with pytest.raises(OutOfMemoryError):
        udf.run_model(model, x)

    runtime = ExternalRuntime(
        "tensorflow-sim", MemoryBudget(config.dl_memory_limit_bytes)
    )
    handle = runtime.load_model(model)
    with pytest.raises(OutOfMemoryError):
        runtime.run(handle, x)

    relation = RelationCentricEngine(catalog, config, stripe_rows=64)
    result = relation.run_vector_stage(model.layers, x, model_info)
    np.testing.assert_allclose(result.outputs, model.forward(x), atol=1e-8)
    assert result.peak_memory_bytes < config.dl_memory_limit_bytes
