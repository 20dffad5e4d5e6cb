"""The ISSUE acceptance flow: OOM under a tight budget completes via
re-lowering with identical results, the rescue is visible in per-query
stats, and the ledger makes the next plan relation-centric up-front."""

import numpy as np
import pytest

from repro import Database, Representation
from repro.config import SystemConfig, mb
from repro.core import RuleBasedOptimizer
from repro.data import fraud_transactions
from repro.engines import HybridExecutor
from repro.errors import OutOfMemoryError
from repro.models import deepbench_conv1, fraud_fc_256
from repro.storage import BufferPool, Catalog, InMemoryDiskManager, VersionRecord

#: Fraud-FC-256's weights are 63,504 bytes: a 40 KiB whole-tensor budget
#: OOMs on the very first charge, while the 64 MiB threshold keeps the
#: optimizer's estimate comfortably under — the estimate-was-wrong case
#: runtime recovery exists for.
TIGHT = dict(
    telemetry_enabled=True,
    memory_threshold_bytes=mb(64),
    dl_memory_limit_bytes=40 * 1024,
)

FEATURES = ", ".join(f"f{i}" for i in range(28))
PREDICT_SQL = f"SELECT PREDICT(fraud, {FEATURES}) FROM tx"


@pytest.fixture
def expected(rng):
    model = fraud_fc_256()
    return model, rng.normal(size=(64, 28))


def test_oom_recovers_relowered_with_identical_results(expected):
    model, x = expected
    with Database(**TIGHT) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        plan = db.inference_plan("fraud", batch_size=64)
        assert plan.is_single_udf  # the estimate said it fits
        result = db.predict("fraud", x)
        np.testing.assert_allclose(result.outputs, model.forward(x), atol=1e-9)
        assert result.detail.get("stage0.recovery") == 1.0
        metrics = {row[0]: row[1] for row in db.execute("SHOW METRICS").rows}
        assert metrics['engine_recoveries_total{outcome="relowered"}'] == 1


def test_ledger_lowers_the_rescued_stage_up_front(expected):
    model, x = expected
    with Database(**TIGHT) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        db.predict("fraud", x)  # first run pays the rescue
        # The ledger keys on the model's own name (the unit plans and
        # compiled entries are stamped with), not the catalog alias.
        assert db.recovery_ledger.rescues("fraud-fc-256") == 4  # all fused nodes
        replanned = db.inference_plan("fraud", batch_size=64)
        assert replanned.representations == [Representation.RELATION_CENTRIC]
        assert any("recovery ledger" in note for note in replanned.notes)
        # The repeated query takes the bounded path directly: same
        # answer, no second rescue.
        result = db.predict("fraud", x)
        np.testing.assert_allclose(result.outputs, model.forward(x), atol=1e-9)
        assert "stage0.recovery" not in result.detail
        assert db.recovery_ledger.rescues("fraud-fc-256") == 4


def test_sql_predict_reports_recovered_stage_in_cursor_stats():
    with Database(**TIGHT) as db:
        __, __, rows = fraud_transactions(48, seed=7)
        columns = ", ".join(f"f{i} DOUBLE" for i in range(28))
        db.execute(f"CREATE TABLE tx (id INT, {columns}, label INT)")
        db.load_rows("tx", rows)
        db.register_model(fraud_fc_256(), name="fraud")
        cur = db.execute(PREDICT_SQL)
        assert len(cur) == 48
        assert cur.stats.recovered_stages >= 1
        assert ("recovered_stages", cur.stats.recovered_stages) in cur.stats.as_rows()
        assert "recovery: relowered" in cur.stats.render()
        audits = [a for a in cur.stats.stage_audits if a.recovered]
        assert audits and audits[0].recovery == "relowered"


def test_gave_up_when_recovery_disabled(expected):
    __, x = expected
    with Database(resilience_enabled=False, **TIGHT) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        with pytest.raises(OutOfMemoryError):
            db.predict("fraud", x)
        metrics = {row[0]: row[1] for row in db.execute("SHOW METRICS").rows}
        assert metrics['engine_recoveries_total{outcome="gave-up"}'] == 1
        audit = db.execute("SHOW AUDIT")
        recovery = dict(zip(audit.column("model"), audit.column("recovery")))
        assert recovery["fraud-fc-256"] == "gave-up"


def test_gave_up_when_budget_exhausted(expected):
    __, x = expected
    with Database(resilience_max_recoveries_per_query=0, **TIGHT) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        with pytest.raises(OutOfMemoryError):
            db.predict("fraud", x)


def test_forced_plans_are_never_rescued(expected):
    """Forced plans reproduce the paper's fixed-architecture baselines:
    a forced whole-tensor plan that OOMs *is* the Table 3 measurement,
    so the executor must let it fail."""
    __, x = expected
    with Database(**TIGHT) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        with pytest.raises(OutOfMemoryError):
            db.predict("fraud", x, force="udf-centric")
        assert db.recovery_ledger.rescues() == 0


# -- the batch-split path ---------------------------------------------------


def make_catalog(capacity=512):
    return Catalog(
        BufferPool(InMemoryDiskManager(16 * 1024), capacity_pages=capacity)
    )


def test_non_relowerable_oom_splits_the_batch(rng):
    """A conv stage (4-D activations, not expressible as a relational
    vector pipeline) that OOMs is retried on recursively halved batches:
    weights + 8 images blow a 500 KB budget, but two half-batches of 4
    fit, and the merged result matches the unconstrained forward pass."""
    config = SystemConfig(
        memory_threshold_bytes=mb(256),
        dl_memory_limit_bytes=500_000,
        resilience_split_floor_rows=2,
    )
    model = deepbench_conv1(scale=0.2)  # 22×22×13 input, 1×1 conv
    catalog = make_catalog()
    info = VersionRecord("conv", model)
    plan = RuleBasedOptimizer(config).plan_model(model, batch_size=8)
    assert plan.representations == [Representation.UDF_CENTRIC]
    x = rng.normal(size=(8,) + model.input_shape)
    executor = HybridExecutor(catalog, config)
    result = executor.execute(plan, x, info)
    np.testing.assert_allclose(result.outputs, model.forward(x), atol=1e-12)
    assert result.detail.get("stage0.recovery") == 1.0
    # One recovery, two pieces: neither half needed a further split.
    with pytest.raises(OutOfMemoryError):
        executor.udf_engine.run_layers(model.layers, x)


def test_split_gives_up_below_the_floor(rng):
    """When even floor-sized chunks do not fit (the operator itself is
    what does not fit, not the batch), the original error propagates."""
    config = SystemConfig(
        memory_threshold_bytes=mb(256),
        dl_memory_limit_bytes=60_000,  # under weights + one sample
        resilience_split_floor_rows=2,
    )
    model = deepbench_conv1(scale=0.2)
    catalog = make_catalog()
    info = VersionRecord("conv", model)
    plan = RuleBasedOptimizer(config).plan_model(model, batch_size=8)
    x = rng.normal(size=(8,) + model.input_shape)
    with pytest.raises(OutOfMemoryError):
        HybridExecutor(catalog, config).execute(plan, x, info)
