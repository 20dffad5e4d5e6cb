"""Cross-engine integration: CNN plans, forced modes, and failure paths."""

import numpy as np
import pytest

from repro.config import SystemConfig, mb
from repro.core import RuleBasedOptimizer, Representation
from repro.core.ir import PlanStage
from repro.core.lowering import lower_model
from repro.dlruntime import MemoryBudget, ReLU
from repro.engines import HybridExecutor, RelationCentricEngine
from repro.errors import OutOfMemoryError, PlanError
from repro.models import cache_cnn, deepbench_conv1, fraud_fc_256
from repro.storage import BufferPool, Catalog, InMemoryDiskManager, VersionRecord


def make_catalog(capacity=128):
    return Catalog(BufferPool(InMemoryDiskManager(16 * 1024), capacity_pages=capacity))


@pytest.fixture
def config():
    return SystemConfig(
        memory_threshold_bytes=mb(256),
        dl_memory_limit_bytes=mb(512),
        tensor_block_rows=32,
        tensor_block_cols=32,
    )


def test_hybrid_runs_full_cnn_as_single_udf(rng, config):
    """A deep CNN (conv/relu/conv/relu/flatten/fc/relu/fc/softmax) fits the
    threshold at small batch and runs as one fused UDF stage."""
    catalog = make_catalog()
    model = cache_cnn(seed=1)
    info = VersionRecord("cnn", model)
    plan = RuleBasedOptimizer(config).plan_model(model, batch_size=4)
    assert plan.is_single_udf
    x = rng.normal(size=(4, 28, 28, 1))
    result = HybridExecutor(catalog, config).execute(plan, x, info)
    np.testing.assert_allclose(result.outputs, model.forward(x), atol=1e-12)


def test_hybrid_relation_conv_plan(rng, config):
    """A conv forced relation-centric runs as a relation-centric stage."""
    catalog = make_catalog(capacity=512)
    model = deepbench_conv1(scale=0.2)  # 22×22×13
    info = VersionRecord("conv", model)
    plan = RuleBasedOptimizer(config).plan_model(
        model, batch_size=2, force="relation-centric"
    )
    x = rng.normal(size=(2,) + model.input_shape)
    tables = {t.name for t in catalog.tables()}
    result = HybridExecutor(catalog, config).execute(plan, x, info)
    # The stage answers with its feature map and keeps no result table.
    np.testing.assert_allclose(result.outputs, model.forward(x), rtol=1e-6)
    new = {t.name for t in catalog.tables()} - tables
    assert all(name.startswith("__model_") for name in new)


def test_relation_conv_stage_with_relu(rng, config):
    catalog = make_catalog(capacity=512)
    model = deepbench_conv1(scale=0.2)
    conv = model.layers[0]
    info = VersionRecord("conv", model)
    engine = RelationCentricEngine(catalog, config, stripe_rows=64)
    images = rng.normal(size=(1,) + model.input_shape)
    engine.run_vector_stage([conv, ReLU()], images, info, result_table="relu_out")
    side = model.input_shape[0]
    out = engine.load_conv_result("relu_out", 1, side, side, conv.out_channels)
    np.testing.assert_allclose(
        out, np.maximum(model.forward(images), 0.0), atol=1e-9
    )


def test_relation_vector_stage_rejects_images(rng, config):
    catalog = make_catalog()
    model = fraud_fc_256()
    info = VersionRecord("fraud", model)
    engine = RelationCentricEngine(catalog, config)
    with pytest.raises(PlanError):
        engine.run_vector_stage(model.layers, rng.normal(size=(2, 3, 3, 1)), info)


def test_relation_conv_stage_rejects_vectors(rng, config):
    catalog = make_catalog()
    model = deepbench_conv1(scale=0.2)
    info = VersionRecord("conv", model)
    engine = RelationCentricEngine(catalog, config)
    with pytest.raises(PlanError):
        engine.run_vector_stage(model.layers, rng.normal(size=(2, 5)), info)


def test_unassigned_stage_rejected(rng, config):
    catalog = make_catalog()
    model = fraud_fc_256()
    info = VersionRecord("fraud", model)
    nodes = lower_model(model)
    bad_plan_stage = PlanStage(Representation.UNASSIGNED, nodes)
    from repro.core.ir import InferencePlan

    plan = InferencePlan(model, 4, [bad_plan_stage], threshold_bytes=0)
    with pytest.raises(PlanError):
        HybridExecutor(catalog, config).execute(
            plan, rng.normal(size=(4, 28)), info
        )


def test_session_predict_with_custom_dl_budget(rng):
    from repro import Database

    with Database(memory_threshold_bytes=mb(64)) as db:
        model = fraud_fc_256()
        db.register_model(model, name="fraud")
        x = rng.normal(size=(32, 28))
        tiny = MemoryBudget(16)
        # The custom budget applies to the DL runtime; the adaptive plan is
        # UDF-centric so it never touches it.
        result = db.predict("fraud", x, dl_budget=tiny)
        np.testing.assert_allclose(result.outputs, model.forward(x), atol=1e-12)
        with pytest.raises(OutOfMemoryError):
            db.predict("fraud", x, force="dl-centric", dl_budget=tiny)


def test_budgeted_predict_reuses_the_session_executor(rng, monkeypatch):
    """A per-call DL budget is charged by the session's one executor: no
    executor is built for the call, and the session's own budget is not
    charged."""
    from repro import Database

    with Database(memory_threshold_bytes=mb(64)) as db:
        model = fraud_fc_256()
        db.register_model(model, name="fraud")
        executor = db._models.executor
        built = []
        init = HybridExecutor.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(HybridExecutor, "__init__", spy)
        x = rng.normal(size=(32, 28))
        roomy = MemoryBudget(mb(64))
        result = db.predict("fraud", x, force="dl-centric", dl_budget=roomy)
        np.testing.assert_allclose(result.outputs, model.forward(x), atol=1e-12)
        assert roomy.peak > 0 and executor.dl_budget.peak == 0
        with pytest.raises(OutOfMemoryError):
            db.predict("fraud", x, force="dl-centric", dl_budget=MemoryBudget(16))
        assert built == [] and db._models.executor is executor


def test_execute_explain_statement_returns_plan_rows(rng):
    from repro import Database

    with Database() as db:
        db.execute("CREATE TABLE t (x DOUBLE)")
        db.register_model(fraud_fc_256(), name="fraud")
        cur = db.execute("EXPLAIN SELECT x FROM t WHERE x > 0")
        assert cur.columns == ("plan",)
        text = "\n".join(r[0] for r in cur)
        assert "Filter" in text and "SeqScan" in text


def test_hybrid_runs_pooled_cnn_as_udf(rng, config):
    """MaxPool and Flatten lower and execute through the UDF stage."""
    from repro.dlruntime import Conv2d, Flatten, Linear, MaxPool2d, Model, ReLU, Softmax

    local_rng = np.random.default_rng(9)
    model = Model(
        "pooled",
        [
            Conv2d(1, 8, (3, 3), padding=1, rng=local_rng, name="c1"),
            ReLU(),
            MaxPool2d(2),
            Conv2d(8, 4, (3, 3), padding=1, rng=local_rng, name="c2"),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(4 * 4 * 4, 5, rng=local_rng, name="out"),
            Softmax(),
        ],
        input_shape=(16, 16, 1),
    )
    catalog = make_catalog()
    info = VersionRecord("pooled", model)
    plan = RuleBasedOptimizer(config).plan_model(model, batch_size=3)
    assert plan.is_single_udf
    from repro.core import LinAlgOp, lower_model

    ops = [n.op for n in lower_model(model)]
    assert LinAlgOp.MAXPOOL in ops and LinAlgOp.FLATTEN in ops
    x = rng.normal(size=(3, 16, 16, 1))
    result = HybridExecutor(catalog, config).execute(plan, x, info)
    np.testing.assert_allclose(result.outputs, model.forward(x), atol=1e-12)
