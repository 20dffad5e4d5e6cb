"""Table 3 — large-scale model inference: latency and OOM behaviour.

The paper's grid (r4.2xlarge, 61 GB RAM, 2 GB optimizer threshold)::

    Model          Batch   Ours    UDF-centric  TensorFlow  PyTorch
    Amazon-14k-FC  1000    58.6    60.4         34.6        22.6
                   8000    407.2   OOM          OOM         OOM
    LandCover      1       36.8    OOM          9.9         OOM
                   2       45.2    OOM          OOM         OOM

We reproduce the same grid at 1/100 scale with a 150 MB whole-tensor
budget (DESIGN.md derives the scaling; the OOM pattern is arithmetic over
operator sizes, so it is exact, not a timing accident).  Expected shape:

* where an engine OOMs in the paper, it OOMs here;
* "ours" (the adaptive optimizer → relation-centric for the oversized
  operators) completes every cell, spilling blocks through the buffer
  pool;
* where the whole-tensor engines fit, their *modeled* latency beats ours
  (the paper's observation that frameworks win when memory suffices).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig, mb
from repro.core import Representation, RuleBasedOptimizer
from repro.data import landcover_tiles
from repro.dlruntime import ExternalRuntime, MemoryBudget
from repro.engines import RelationCentricEngine, UdfCentricEngine
from repro.models import amazon_14k_fc, landcover

from _util import OOM, emit, fmt_seconds, measure_or_oom, render_table

# 1/100 of the paper's instance memory scale.
WHOLE_TENSOR_BUDGET = mb(150)
AMAZON_SCALE = 0.01  # 5975 features / 1024 hidden / 146 outputs
AMAZON_BATCHES = (1000, 8000)
LC_SPATIAL = 320
LC_CHANNELS = 256
LC_BATCHES = (1, 2)


@pytest.fixture(scope="module")
def config():
    return SystemConfig(
        buffer_pool_bytes=mb(48),
        memory_threshold_bytes=mb(24),
        dl_memory_limit_bytes=WHOLE_TENSOR_BUDGET,
        tensor_block_rows=128,
        tensor_block_cols=128,
    )


@pytest.fixture(scope="module")
def amazon_setup(config):
    from repro.storage import BufferPool, Catalog, FileDiskManager, VersionRecord

    disk = FileDiskManager(config.page_size)
    catalog = Catalog(BufferPool(disk, config.buffer_pool_pages))
    model = amazon_14k_fc(scale=AMAZON_SCALE)
    info = VersionRecord("amazon", model)
    rng = np.random.default_rng(31)
    features = rng.normal(size=(max(AMAZON_BATCHES), model.input_shape[0]))
    yield config, catalog, model, info, features
    disk.close()


@pytest.fixture(scope="module")
def landcover_setup(config):
    from repro.storage import BufferPool, Catalog, FileDiskManager, VersionRecord

    disk = FileDiskManager(config.page_size)
    catalog = Catalog(BufferPool(disk, config.buffer_pool_pages))
    model = landcover(spatial=LC_SPATIAL, out_channels=LC_CHANNELS)
    info = VersionRecord("lc", model)
    tiles = landcover_tiles(max(LC_BATCHES), spatial=LC_SPATIAL, seed=32)
    yield config, catalog, model, info, tiles
    disk.close()


def _framework(flavor, model, x):
    runtime = ExternalRuntime(flavor, MemoryBudget(WHOLE_TENSOR_BUDGET))
    handle = runtime.load_model(model)

    def run():
        return runtime.run(handle, x)

    result, seconds = measure_or_oom(run)
    if result is None:
        return OOM, OOM
    return seconds, result.modeled_seconds


def _udf(model, x):
    engine = UdfCentricEngine(MemoryBudget(WHOLE_TENSOR_BUDGET), eager_free=False)
    result, seconds = measure_or_oom(lambda: engine.run_model(model, x))
    return seconds if result is not None else OOM


def test_table3_optimizer_picks_relation_centric(config, benchmark):
    """The 1/100-scale weights still trip the (scaled) threshold."""
    model = amazon_14k_fc(scale=AMAZON_SCALE)
    plan = benchmark.pedantic(
        lambda: RuleBasedOptimizer(config).plan_model(model, batch_size=1000),
        rounds=1,
        iterations=1,
    )
    assert plan.stages[0].representation is Representation.RELATION_CENTRIC
    lc_plan = RuleBasedOptimizer(config).plan_model(
        landcover(spatial=LC_SPATIAL, out_channels=LC_CHANNELS), batch_size=1
    )
    assert lc_plan.stages[0].representation is Representation.RELATION_CENTRIC


@pytest.mark.parametrize("batch", AMAZON_BATCHES)
def test_table3_amazon_ours_completes(benchmark, amazon_setup, batch):
    config, catalog, model, info, features = amazon_setup
    engine = RelationCentricEngine(catalog, config, stripe_rows=1024)
    x = features[:batch]
    result = benchmark.pedantic(
        lambda: engine.run_vector_stage(model.layers, x, info),
        rounds=1,
        iterations=1,
    )
    assert result.outputs.shape == (batch, model.output_shape[0])
    assert result.peak_memory_bytes < WHOLE_TENSOR_BUDGET


def test_table3_grid(amazon_setup, landcover_setup, benchmark, capsys):
    config, catalog, model, info, features = amazon_setup
    rows = []
    expectations = {}
    for batch in AMAZON_BATCHES:
        x = features[:batch]
        engine = RelationCentricEngine(catalog, config, stripe_rows=1024)
        ours_result, ours = measure_or_oom(
            lambda: engine.run_vector_stage(model.layers, x, info)
        )
        udf = _udf(model, x)
        tf, tf_model = _framework("tensorflow-sim", model, x)
        pt, pt_model = _framework("pytorch-sim", model, x)
        rows.append(
            [
                "Amazon-14k-FC (1/100)",
                batch,
                fmt_seconds(ours),
                fmt_seconds(udf),
                f"{fmt_seconds(tf)} ({fmt_seconds(tf_model)})",
                f"{fmt_seconds(pt)} ({fmt_seconds(pt_model)})",
            ]
        )
        expectations[("amazon", batch)] = (ours, udf, tf, pt)

    lc_config, lc_catalog, lc_model, lc_info, tiles = landcover_setup
    conv = lc_model.layers[0]
    for batch in LC_BATCHES:
        x = tiles[:batch]
        engine = RelationCentricEngine(lc_catalog, lc_config, stripe_rows=2048)
        ours_result, ours = measure_or_oom(
            lambda: engine.run_vector_stage(
                [conv], x, lc_info, result_table=f"lc_out_b{batch}"
            )
        )
        udf = _udf(lc_model, x)
        tf, tf_model = _framework("tensorflow-sim", lc_model, x)
        pt, pt_model = _framework("pytorch-sim", lc_model, x)
        rows.append(
            [
                f"LandCover ({LC_SPATIAL}²×{LC_CHANNELS})",
                batch,
                fmt_seconds(ours),
                fmt_seconds(udf),
                f"{fmt_seconds(tf)} ({fmt_seconds(tf_model)})",
                f"{fmt_seconds(pt)} ({fmt_seconds(pt_model)})",
            ]
        )
        expectations[("landcover", batch)] = (ours, udf, tf, pt)

    pool_stats = lc_catalog.pool.stats
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    emit(
        capsys,
        render_table(
            "Table 3: Large-scale model inference (whole-tensor budget "
            f"{WHOLE_TENSOR_BUDGET // mb(1)} MB; framework cells show "
            "measured (modeled))",
            ["model", "batch", "ours", "UDF-centric", "TF-sim", "PT-sim"],
            rows,
        )
        + f"buffer pool: {pool_stats.evictions} evictions, "
        f"{pool_stats.dirty_writebacks} dirty writebacks (relation-centric "
        "spilling)\n",
    )

    # The paper's OOM pattern, cell for cell.
    ours, udf, tf, pt = expectations[("amazon", 1000)]
    assert ours != OOM and udf != OOM and tf != OOM and pt != OOM
    ours, udf, tf, pt = expectations[("amazon", 8000)]
    assert ours != OOM
    assert (udf, tf, pt) == (OOM, OOM, OOM)
    ours, udf, tf, pt = expectations[("landcover", 1)]
    assert ours != OOM and tf != OOM
    assert (udf, pt) == (OOM, OOM)
    ours, udf, tf, pt = expectations[("landcover", 2)]
    assert ours != OOM
    assert (udf, tf, pt) == (OOM, OOM, OOM)
    # Relation-centric execution spilled through the buffer pool.
    assert pool_stats.evictions > 0
