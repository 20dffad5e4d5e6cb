import numpy as np
import pytest

from repro.config import ConnectorCostModel
from repro.dlruntime import (
    Connector,
    ExternalRuntime,
    Linear,
    MemoryBudget,
    Model,
    ReLU,
)
from repro.errors import ExecutionError, ModelError, OutOfMemoryError
from repro.relational import ColumnType, Schema
from repro.relational.operators import ValuesScan
from repro.storage import BufferPool, Catalog, InMemoryDiskManager


def make_model(rng, in_features=4, hidden=8, out=2):
    return Model(
        "m",
        [
            Linear(in_features, hidden, rng=rng, name="fc1"),
            ReLU(),
            Linear(hidden, out, rng=rng, name="fc2"),
        ],
        input_shape=(in_features,),
    )


def test_runtime_runs_model(rng):
    runtime = ExternalRuntime("tensorflow-sim", MemoryBudget(1 << 24))
    model = make_model(rng)
    handle = runtime.load_model(model)
    x = rng.normal(size=(32, 4))
    result = runtime.run(handle, x)
    np.testing.assert_allclose(result.outputs, model.forward(x))
    assert result.measured_seconds > 0
    assert result.modeled_seconds < result.measured_seconds  # efficiency > 1
    assert result.peak_memory_bytes > model.param_bytes


def test_runtime_oom_on_large_batch(rng):
    model = make_model(rng)
    budget = MemoryBudget(model.param_bytes + 4096)
    runtime = ExternalRuntime("pytorch-sim", budget)
    handle = runtime.load_model(model)
    with pytest.raises(OutOfMemoryError):
        runtime.run(handle, rng.normal(size=(10_000, 4)))
    assert budget.used == 0  # OOM left no leaked charges


def test_run_batched_reduces_peak(rng):
    model = make_model(rng)
    budget = MemoryBudget(1 << 26)
    runtime = ExternalRuntime("tensorflow-sim", budget)
    handle = runtime.load_model(model)
    x = rng.normal(size=(4096, 4))
    whole = runtime.run(handle, x)
    batched = runtime.run_batched(handle, x, batch_size=128)
    np.testing.assert_allclose(batched.outputs, whole.outputs)
    assert batched.peak_memory_bytes < whole.peak_memory_bytes


def test_unknown_flavor_and_handle_rejected(rng):
    with pytest.raises(ModelError):
        ExternalRuntime("mxnet", MemoryBudget(1024))
    runtime = ExternalRuntime("generic", MemoryBudget(1024))
    with pytest.raises(ModelError):
        runtime.run("ghost", np.zeros((1, 1)))


def test_connector_extracts_columns_from_heap(rng):
    pool = BufferPool(InMemoryDiskManager(4096), capacity_pages=16)
    catalog = Catalog(pool)
    schema = Schema.of(("id", ColumnType.INT), ("f0", ColumnType.DOUBLE), ("f1", ColumnType.DOUBLE))
    info = catalog.create_table("t", schema)
    rows = [(i, float(i) / 2, float(-i)) for i in range(500)]
    for row in rows:
        info.heap.insert(row)
    from repro.relational.operators import SeqScan

    result = Connector().extract(SeqScan(info), batch_size=128)
    assert result.num_rows == 500
    np.testing.assert_array_equal(result.columns["id"], np.arange(500))
    np.testing.assert_allclose(result.columns["f0"], np.arange(500) / 2)
    features = result.feature_matrix(["f0", "f1"])
    assert features.shape == (500, 2)
    assert result.wire_bytes > 500 * 3 * 8  # at least the raw payload
    assert result.serialize_seconds > 0
    assert result.modeled_wire_seconds > 0


def test_connector_keeps_int_columns_exact():
    """INT values cross as int64, not float64: 2**53 + 1 survives."""
    schema = Schema.of(("id", ColumnType.INT), ("x", ColumnType.DOUBLE))
    big = [2**53 + 1, -(2**63), 2**63 - 1, None]
    result = Connector().extract(ValuesScan(schema, [(v, 0.5) for v in big]))
    assert result.columns["id"].dtype == np.int64
    assert result.columns["id"].tolist() == [2**53 + 1, -(2**63), 2**63 - 1, 0]
    assert result.wire_bytes == 4 + 4 + 4 * 2 * 8  # still 8 bytes a value


def test_connector_rejects_text_columns():
    schema = Schema.of(("name", ColumnType.TEXT))
    scan = ValuesScan(schema, [("x",)])
    with pytest.raises(ExecutionError):
        Connector().extract(scan)


def test_connector_wire_time_scales_with_bytes():
    model = ConnectorCostModel(
        bandwidth_bytes_per_s=1e9, per_row_overhead_s=0.0, per_batch_latency_s=0.0
    )
    assert model.wire_time(2_000_000, 0) == pytest.approx(0.002)
    assert model.wire_time(4_000_000, 0) == pytest.approx(0.004)


def test_connector_accumulates_totals(rng):
    schema = Schema.of(("v", ColumnType.DOUBLE))
    connector = Connector()
    connector.extract(ValuesScan(schema, [(1.0,), (2.0,)]))
    connector.extract(ValuesScan(schema, [(3.0,)]))
    assert connector.total_rows_moved == 3
    assert connector.total_bytes_moved > 0
