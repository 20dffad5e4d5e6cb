import numpy as np
import pytest

from repro.config import SystemConfig, mb
from repro.core import (
    AotCompiler,
    LinAlgOp,
    Representation,
    RuleBasedOptimizer,
    lower_model,
    node_flops,
    node_memory_requirement,
    plan_peak_memory,
)
from repro.dlruntime import Linear, Model, ReLU, Softmax
from repro.errors import PlanError
from repro.models import amazon_14k_fc, fraud_fc_256, landcover


def test_lowering_one_node_per_layer():
    model = fraud_fc_256()
    nodes = lower_model(model)
    assert [n.op for n in nodes] == [
        LinAlgOp.MATMUL,
        LinAlgOp.RELU,
        LinAlgOp.MATMUL,
        LinAlgOp.SOFTMAX,
    ]
    assert nodes[0].input_shape == (28,)
    assert nodes[0].output_shape == (256,)


def test_memory_requirement_matches_paper_formula():
    """For a matmul m×k by k×n the paper estimates m·k + k·n + m·n."""
    model = Model("m", [Linear(100, 50, name="fc")], input_shape=(100,))
    node = lower_model(model)[0]
    batch = 32
    expected = (32 * 100 + 32 * 50) * 8 + (100 * 50 + 50) * 8
    assert node_memory_requirement(node, batch) == expected


def test_node_flops():
    model = Model("m", [Linear(10, 4, name="fc")], input_shape=(10,))
    node = lower_model(model)[0]
    assert node_flops(node, 8) == 8 * 2 * 10 * 4


def test_small_model_becomes_single_udf():
    config = SystemConfig(memory_threshold_bytes=mb(2))
    plan = RuleBasedOptimizer(config).plan_model(fraud_fc_256(), batch_size=256)
    assert plan.is_single_udf
    assert len(plan.stages) == 1
    assert plan.stages[0].representation is Representation.UDF_CENTRIC


def test_large_weight_triggers_relation_centric():
    config = SystemConfig(memory_threshold_bytes=mb(2))
    model = amazon_14k_fc(scale=0.02)  # first weight ~11951*1024*8 ≈ 98 MB
    plan = RuleBasedOptimizer(config).plan_model(model, batch_size=1000)
    reps = plan.representations
    assert Representation.RELATION_CENTRIC in reps
    # The big matmul is the first stage.
    assert plan.stages[0].representation is Representation.RELATION_CENTRIC
    assert plan.notes  # the optimizer explains its choice


def test_landcover_conv_exceeds_threshold():
    config = SystemConfig(memory_threshold_bytes=mb(2))
    model = landcover(spatial=320, out_channels=256)
    plan = RuleBasedOptimizer(config).plan_model(model, batch_size=1)
    assert plan.stages[0].representation is Representation.RELATION_CENTRIC


def test_threshold_sweep_flips_representation():
    model = fraud_fc_256()
    batch = 256
    tiny = RuleBasedOptimizer(
        SystemConfig(memory_threshold_bytes=1024)
    ).plan_model(model, batch)
    assert Representation.RELATION_CENTRIC in tiny.representations
    huge = RuleBasedOptimizer(
        SystemConfig(memory_threshold_bytes=mb(512))
    ).plan_model(model, batch)
    assert huge.is_single_udf


def test_force_representation():
    config = SystemConfig()
    plan = RuleBasedOptimizer(config).plan_model(
        fraud_fc_256(), 64, force="relation-centric"
    )
    assert all(r is Representation.RELATION_CENTRIC for r in plan.representations)
    plan2 = RuleBasedOptimizer(config).plan_model(
        fraud_fc_256(), 64, force=Representation.DL_CENTRIC
    )
    assert all(r is Representation.DL_CENTRIC for r in plan2.representations)


def test_stage_fusion_groups_consecutive_nodes():
    config = SystemConfig(memory_threshold_bytes=mb(2))
    model = amazon_14k_fc(scale=0.02)
    plan = RuleBasedOptimizer(config).plan_model(model, batch_size=1000)
    # relu after the big matmul fuses with whichever side shares its
    # representation; total stage count is less than node count.
    assert len(plan.stages) < len(lower_model(model))
    for stage in plan.stages:
        assert all(n.representation is stage.representation for n in stage.nodes)


def test_plan_peak_memory_excludes_relation_stages():
    config = SystemConfig(memory_threshold_bytes=mb(2))
    model = amazon_14k_fc(scale=0.02)
    plan = RuleBasedOptimizer(config).plan_model(model, batch_size=1000)
    peak = plan_peak_memory(plan)
    first_node = plan.stages[0].nodes[0]
    assert peak < node_memory_requirement(first_node, 1000)


def test_invalid_batch_rejected():
    with pytest.raises(PlanError):
        RuleBasedOptimizer(SystemConfig()).plan_model(fraud_fc_256(), 0)


def test_explain_is_readable():
    config = SystemConfig(memory_threshold_bytes=mb(2))
    plan = RuleBasedOptimizer(config).plan_model(fraud_fc_256(), 128)
    text = plan.explain()
    assert "udf-centric" in text
    assert "matmul" in text


def test_aot_compiler_selects_covering_plan():
    config = SystemConfig(memory_threshold_bytes=mb(2))
    compiled = AotCompiler(config, batch_grid=(1, 64, 1024)).compile(fraud_fc_256())
    assert compiled.select(1).batch_size == 1
    assert compiled.select(50).batch_size == 64
    assert compiled.select(64).batch_size == 64
    assert compiled.select(9999).batch_size == 1024  # beyond grid: largest
    with pytest.raises(PlanError):
        compiled.select(0)


def test_aot_plans_vary_with_batch():
    """Memory estimates grow with batch, so representations can flip."""
    config = SystemConfig(memory_threshold_bytes=mb(32))
    from repro.models import encoder_fc

    compiled = AotCompiler(config, batch_grid=(1, 8192)).compile(encoder_fc())
    small = compiled.plans[1]
    large = compiled.plans[8192]
    assert small.is_single_udf
    assert Representation.RELATION_CENTRIC in large.representations


def test_plan_nodes_carry_memory_estimates():
    config = SystemConfig(memory_threshold_bytes=mb(2))
    batch = 256
    plan = RuleBasedOptimizer(config).plan_model(fraud_fc_256(), batch)
    for stage in plan.stages:
        for node in stage.nodes:
            assert node.estimated_bytes == node_memory_requirement(node, batch)
            assert node.estimated_bytes > 0
        # The stage estimate is its widest node (stages run node-at-a-time).
        assert stage.estimated_bytes == max(
            n.estimated_bytes for n in stage.nodes
        )
        assert "est=" in stage.nodes[0].describe()


def test_forced_plans_still_carry_estimates():
    plan = RuleBasedOptimizer(SystemConfig()).plan_model(
        fraud_fc_256(), 64, force="relation-centric"
    )
    assert all(
        node.estimated_bytes > 0 for stage in plan.stages for node in stage.nodes
    )


def test_optimizer_decisions_count_each_operator_once():
    from repro.telemetry import Telemetry

    telemetry = Telemetry(enabled=True)
    config = SystemConfig(memory_threshold_bytes=mb(2))
    optimizer = RuleBasedOptimizer(config, telemetry=telemetry)
    model = fraud_fc_256()
    optimizer.plan_model(model, 256)
    snapshot = telemetry.registry.snapshot()
    decisions = sum(
        v
        for k, v in snapshot.items()
        if k.startswith("optimizer_decisions_total")
    )
    assert decisions == len(lower_model(model))


def test_device_aware_offload_counts_decision_once():
    # Regression: the UDF->DL reassignment used to increment both the
    # udf-centric and dl-centric decision counters for the same operator.
    from repro.core import DeviceAwareOptimizer
    from repro.dlruntime import Linear, Model, cpu_device, gpu_device
    from repro.telemetry import Telemetry

    telemetry = Telemetry(enabled=True)
    config = SystemConfig(memory_threshold_bytes=mb(512))
    heavy = Model("heavy", [Linear(2048, 2048, name="fc")], input_shape=(2048,))
    optimizer = DeviceAwareOptimizer(
        config, [cpu_device(), gpu_device()], telemetry=telemetry
    )
    plan = optimizer.plan_model(heavy, batch_size=2048)
    assert plan.stages[0].representation is Representation.DL_CENTRIC
    snapshot = telemetry.registry.snapshot()
    by_rep = {
        k: v
        for k, v in snapshot.items()
        if k.startswith("optimizer_decisions_total")
    }
    assert sum(by_rep.values()) == 1
    assert by_rep['optimizer_decisions_total{representation="dl-centric"}'] == 1


def test_representation_parse():
    assert Representation.parse("udf-centric") is Representation.UDF_CENTRIC
    with pytest.raises(ValueError):
        Representation.parse("quantum-centric")


def test_device_aware_optimizer_offloads_gpu_worthy_operators():
    from repro.core import DeviceAwareOptimizer
    from repro.dlruntime import Linear, Model, cpu_device, gpu_device

    config = SystemConfig(memory_threshold_bytes=mb(512))
    devices = [cpu_device(), gpu_device()]
    heavy = Model(
        "heavy", [Linear(2048, 2048, name="fc")], input_shape=(2048,)
    )
    plan = DeviceAwareOptimizer(config, devices).plan_model(heavy, batch_size=2048)
    assert plan.stages[0].representation is Representation.DL_CENTRIC
    assert any("offloaded" in note for note in plan.notes)


def test_device_aware_optimizer_keeps_small_models_in_database():
    from repro.core import DeviceAwareOptimizer
    from repro.dlruntime import cpu_device, gpu_device

    config = SystemConfig(memory_threshold_bytes=mb(64))
    devices = [cpu_device(), gpu_device()]
    plan = DeviceAwareOptimizer(config, devices).plan_model(
        fraud_fc_256(), batch_size=32
    )
    assert plan.is_single_udf


def test_device_aware_optimizer_never_overrides_relation_centric():
    from repro.core import DeviceAwareOptimizer
    from repro.dlruntime import cpu_device, gpu_device

    config = SystemConfig(memory_threshold_bytes=mb(2))
    model = amazon_14k_fc(scale=0.02)
    plan = DeviceAwareOptimizer(config, [cpu_device(), gpu_device()]).plan_model(
        model, batch_size=1000
    )
    assert plan.stages[0].representation is Representation.RELATION_CENTRIC


def test_device_aware_optimizer_respects_force():
    from repro.core import DeviceAwareOptimizer
    from repro.dlruntime import cpu_device, gpu_device

    config = SystemConfig()
    plan = DeviceAwareOptimizer(config, [cpu_device(), gpu_device()]).plan_model(
        fraud_fc_256(), 64, force="udf-centric"
    )
    assert all(r is Representation.UDF_CENTRIC for r in plan.representations)
