"""LandCover: convolving satellite tiles that dwarf memory.

The paper's scientific workload (Table 2 / Table 3): a 1×1-kernel conv
expanding 3 channels to thousands of feature channels over large tiles.
The output feature map alone exceeds what a whole-tensor engine may hold,
so:

* the rule-based optimizer lowers the conv to the relation-centric
  representation (im2col → join + SUM_BLOCK aggregation);
* the block relation streams through the buffer pool, spilling to disk;
* the framework stand-ins OOM on the same budget.

Run:  python examples/landcover_segmentation.py
"""

import numpy as np

from repro.config import SystemConfig, mb
from repro.core import RuleBasedOptimizer
from repro.data import landcover_tiles
from repro.dlruntime import ExternalRuntime, MemoryBudget
from repro.engines import RelationCentricEngine
from repro.errors import OutOfMemoryError
from repro.models import landcover
from repro.storage import BufferPool, Catalog, FileDiskManager, VersionRecord


def main() -> None:
    spatial, out_channels = 256, 192
    config = SystemConfig(
        buffer_pool_bytes=mb(24),
        memory_threshold_bytes=mb(16),
        dl_memory_limit_bytes=mb(40),
    )
    model = landcover(spatial=spatial, out_channels=out_channels)
    conv = model.layers[0]
    out_bytes = spatial * spatial * out_channels * 8
    print(
        f"workload: conv {spatial}x{spatial}x3 -> {out_channels} channels; "
        f"output feature map = {out_bytes / 2**20:.0f} MiB "
        f"(whole-tensor budget: {config.dl_memory_limit_bytes / 2**20:.0f} MiB)"
    )

    plan = RuleBasedOptimizer(config).plan_model(model, batch_size=1)
    print("\noptimizer decision:")
    print(plan.explain())

    tiles = landcover_tiles(1, spatial=spatial, seed=5)

    print("\nDL-centric attempt (TensorFlow stand-in):")
    runtime = ExternalRuntime(
        "tensorflow-sim", MemoryBudget(config.dl_memory_limit_bytes)
    )
    handle = runtime.load_model(model)
    try:
        runtime.run(handle, tiles)
        print("  completed (unexpected at this budget)")
    except OutOfMemoryError as exc:
        print(f"  OOM, as in Table 3: {exc}")

    print("\nrelation-centric execution (ours):")
    disk = FileDiskManager(config.page_size)
    catalog = Catalog(BufferPool(disk, config.buffer_pool_pages))
    info = VersionRecord("landcover", model)
    engine = RelationCentricEngine(catalog, config, stripe_rows=2048)
    pool = catalog.pool
    result = engine.run_vector_stage([conv], tiles, info, result_table="feature_map")
    print(
        f"  completed in {result.measured_seconds:.2f}s; peak accounted "
        f"memory {result.peak_memory_bytes / 2**20:.1f} MiB "
        f"(vs {out_bytes / 2**20:.0f} MiB output)"
    )
    print(
        f"  feature map stored as {int(result.detail['result_table_rows']):,} "
        "tensor-block rows in table 'feature_map'; buffer pool evicted "
        f"{pool.stats.evictions:,} pages to disk along the way"
    )

    # Verify a small corner of the result against the dense reference.
    out = engine.load_conv_result(
        "feature_map", 1, spatial, spatial, out_channels
    )
    reference = model.forward(tiles)
    np.testing.assert_allclose(out, reference, atol=1e-9)
    print("  block-level result verified against the dense reference ✓")
    disk.close()


if __name__ == "__main__":
    main()
