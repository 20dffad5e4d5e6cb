"""Ablation A1 — the optimizer's memory-threshold rule (Sec. 7.1).

Sweeps the threshold for Encoder-FC at batch 1024 and shows (a) where
each operator flips from UDF-centric to relation-centric and (b) the
measured latency cliff: relation-centric execution of cache-resident
operators pays block chunking overhead, which is exactly why the paper's
optimizer keeps small operators in the UDF representation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig, mb
from repro.core import Representation, RuleBasedOptimizer
from repro.engines import HybridExecutor
from repro.models import encoder_fc
from repro.storage import BufferPool, Catalog, InMemoryDiskManager, VersionRecord

from _util import emit, fmt_seconds, measure_stable, render_table

BATCH = 1024
THRESHOLDS_MB = (1, 8, 26, 64)
# Encoder-FC operator estimates at batch 1024: matmul1 ≈ 27.7 MB,
# relu ≈ 50.3 MB... the sweep crosses them one by one.


@pytest.fixture(scope="module")
def setup():
    catalog = Catalog(
        BufferPool(InMemoryDiskManager(64 * 1024), capacity_pages=1024)
    )
    model = encoder_fc()
    info = VersionRecord("encoder", model)
    x = np.random.default_rng(61).normal(size=(BATCH, 76))
    return catalog, model, info, x


def test_ablation_threshold_sweep(benchmark, setup, capsys):
    catalog, model, info, x = setup
    rows = []
    latencies = {}
    for threshold_mb in THRESHOLDS_MB:
        config = SystemConfig(
            memory_threshold_bytes=mb(threshold_mb),
            dl_memory_limit_bytes=mb(1024),
            buffer_pool_bytes=mb(64),
        )
        plan = RuleBasedOptimizer(config).plan_model(model, BATCH)
        executor = HybridExecutor(catalog, config)
        # Median-of-3 with a warmup pass: the sweep *asserts* on the
        # latency ordering below, so single-shot noise would flake.
        result, seconds = measure_stable(
            lambda: executor.execute(plan, x, info), repeats=3, warmup=1
        )
        relation_ops = sum(
            1
            for stage in plan.stages
            for __ in stage.nodes
            if stage.representation is Representation.RELATION_CENTRIC
        )
        latencies[threshold_mb] = seconds
        rows.append(
            [
                f"{threshold_mb} MB",
                " | ".join(s.representation.value for s in plan.stages),
                relation_ops,
                fmt_seconds(seconds),
            ]
        )
        np.testing.assert_allclose(result.outputs, model.forward(x), atol=1e-8)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    emit(
        capsys,
        render_table(
            f"Ablation A1: memory-threshold sweep (Encoder-FC, batch {BATCH})",
            ["threshold", "stage representations", "relation ops", "latency"],
            rows,
        ),
    )
    # Tiny threshold = everything relational = slowest; huge = single UDF.
    assert latencies[max(THRESHOLDS_MB)] < latencies[min(THRESHOLDS_MB)]
    big_plan = RuleBasedOptimizer(
        SystemConfig(memory_threshold_bytes=mb(max(THRESHOLDS_MB)))
    ).plan_model(model, BATCH)
    assert big_plan.is_single_udf
    small_plan = RuleBasedOptimizer(
        SystemConfig(memory_threshold_bytes=mb(min(THRESHOLDS_MB)))
    ).plan_model(model, BATCH)
    assert all(
        s.representation is Representation.RELATION_CENTRIC
        for s in small_plan.stages
    )
