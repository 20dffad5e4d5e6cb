"""SystemConfig validation and helpers."""

import pytest

from repro.config import ConnectorCostModel, SystemConfig, gb, mb
from repro.errors import ConfigError


def test_unit_helpers():
    assert mb(1) == 1 << 20
    assert gb(2) == 2 << 30
    assert mb(0.5) == 1 << 19


def test_defaults_are_valid():
    config = SystemConfig()
    assert config.buffer_pool_pages == config.buffer_pool_bytes // config.page_size
    assert config.buffer_pool_pages >= 4


def test_with_options_revalidates():
    config = SystemConfig()
    bigger = config.with_options(memory_threshold_bytes=mb(100))
    assert bigger.memory_threshold_bytes == mb(100)
    assert config.memory_threshold_bytes != mb(100)  # original untouched
    with pytest.raises(ConfigError):
        config.with_options(memory_threshold_bytes=0)


def test_unknown_options_raise_config_error_naming_them():
    from repro import Database

    with pytest.raises(ConfigError, match="nope"):
        SystemConfig().with_options(nope=1)
    with pytest.raises(ConfigError, match="server_workers"):
        Database(server_workers=4)


@pytest.mark.parametrize(
    "overrides",
    [
        {"page_size": 1024},
        {"buffer_pool_bytes": 1024, "page_size": 4096},
        {"dl_memory_limit_bytes": 0},
        {"tensor_block_rows": 0},
        {"faults_seed": -1},
        {"breaker_window": 4, "breaker_min_samples": 5},
        {"cluster_heartbeat_interval_ms": 100.0, "cluster_heartbeat_timeout_ms": 100.0},
        {"eviction_policy": "fifo"},
    ],
)
def test_invalid_configs_rejected(overrides):
    with pytest.raises(ConfigError):
        SystemConfig(**overrides)


def test_connector_cost_model_components():
    model = ConnectorCostModel(
        bandwidth_bytes_per_s=1e9,
        per_row_overhead_s=1e-6,
        per_batch_latency_s=1e-3,
    )
    t = model.wire_time(nbytes=1_000_000, nrows=1000, nbatches=2)
    assert t == pytest.approx(0.001 + 0.001 + 0.002)


def test_config_is_frozen():
    config = SystemConfig()
    with pytest.raises(Exception):
        config.page_size = 1  # type: ignore[misc]
