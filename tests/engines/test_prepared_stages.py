"""Prepared relation-centric stages over resident compute blocks: a stage's
tree is built once and re-bound per stripe, its weights are decoded once
per table generation, and neither is ever served stale."""

import sys
import threading

import numpy as np
import pytest

from repro import Database
from repro.config import SystemConfig
from repro.core.cost import compute_block_bytes
from repro.dlruntime import Linear, Model, ReLU, Sigmoid, Softmax
from repro.engines import RelationCentricEngine
from repro.errors import ShapeError
from repro.storage import BufferPool, Catalog, InMemoryDiskManager, VersionRecord

BLOCK = 16


def two_layer_model(rng, scale=1.0):
    fc0 = Linear(40, 24, rng=rng, name="fc0")
    fc1 = Linear(24, 10, rng=rng, name="fc1")
    fc0.weight.data *= scale
    return Model("m", [fc0, ReLU(), fc1, Softmax()], (40,))


def make_db():
    # A threshold of one byte lowers every stage to the relation engine.
    return Database(
        memory_threshold_bytes=1, tensor_block_rows=BLOCK, tensor_block_cols=BLOCK
    )


def count_builds(db):
    """Count the stage trees the session's relation engine builds."""
    engine = db._models.executor.relation_engine
    built = []
    build = engine.vector_pipeline

    def spy(layers, side, model_info):
        built.append(model_info.name)
        return build(layers, side, model_info)

    engine.vector_pipeline = spy
    return built


def assert_forward(db, name, model, x):
    np.testing.assert_allclose(db.predict(name, x).outputs, model.forward(x), rtol=1e-6)


# -- staleness -----------------------------------------------------------------


def test_insert_into_a_weight_table_retires_its_resident_blocks(rng):
    with make_db() as db:
        model = two_layer_model(rng)
        db.register_model(model, name="m")
        x = rng.normal(size=(20, 40))
        assert_forward(db, "m", model, x)
        assert db.buffer_pool.resident_blocks > 0
        db.execute("DELETE FROM __model_m_fc0_weight WHERE row_blk = 0 AND col_blk = 0")
        with pytest.raises(ShapeError, match=r"stored block \(0, 0\)"):
            db.predict("m", x)  # the delete was seen, not the resident block
        new = rng.normal(size=(BLOCK, BLOCK))
        db.load_rows("__model_m_fc0_weight", [(0, 0, BLOCK, BLOCK, new.tobytes())])
        model.layers[0].weight.data[:BLOCK, :BLOCK] = new
        assert_forward(db, "m", model, x)


def test_a_dropped_weight_table_is_stored_again_from_the_model(rng):
    with make_db() as db:
        model = two_layer_model(rng)
        db.register_model(model, name="m")
        x = rng.normal(size=(20, 40))
        assert_forward(db, "m", model, x)
        db.execute("DROP TABLE __model_m_fc1_weight")
        model.layers[2].weight.data *= -2.0
        assert_forward(db, "m", model, x)
        assert db.catalog.has_table("__model_m_fc1_weight")


def test_a_failed_store_leaves_no_half_table(rng, monkeypatch):
    """A write that fails midway through storing a weight table drops the
    table, so the next call stores it whole instead of multiplying on a
    matrix with holes."""
    from repro.storage import HeapFile

    with make_db() as db:
        model = two_layer_model(rng)
        db.register_model(model, name="m")
        x = rng.normal(size=(20, 40))
        insert = HeapFile.insert
        calls = []

        def failing(heap, row):
            calls.append(row)
            if len(calls) == 3:
                raise OSError("disk full")
            return insert(heap, row)

        monkeypatch.setattr(HeapFile, "insert", failing)
        with pytest.raises(OSError, match="disk full"):
            db.predict("m", x)
        assert not db.catalog.has_table("__model_m_fc0_weight")
        monkeypatch.setattr(HeapFile, "insert", insert)
        assert_forward(db, "m", model, x)


def test_a_new_version_reads_its_own_weights(rng):
    with make_db() as db:
        model = two_layer_model(rng)
        other = two_layer_model(rng, scale=3.0)
        db.register_model(model, name="m")
        x = rng.normal(size=(20, 40))
        assert_forward(db, "m", model, x)
        db.register_model_version("m", "v2", model=other)
        assert_forward(db, "m@v2", other, x)
        assert_forward(db, "m", model, x)


def test_set_option_rebuilds_the_trees_and_keeps_the_answer(rng):
    with make_db() as db:
        model = two_layer_model(rng)
        db.register_model(model, name="m")
        x = rng.normal(size=(20, 40))
        assert_forward(db, "m", model, x)
        db.set_option("memory_threshold_bytes", 2)
        built = count_builds(db)
        assert_forward(db, "m", model, x)
        assert built == ["m"]  # the new engine's own tree


def test_a_routing_change_keeps_the_prepared_trees(rng):
    """A deploy copies the version record; the tree belongs to the version."""
    with make_db() as db:
        model = two_layer_model(rng)
        other = two_layer_model(rng, scale=3.0)
        db.register_model(model, name="m")
        db.register_model_version("m", "v2", model=other)
        x = rng.normal(size=(20, 40))
        built = count_builds(db)
        assert_forward(db, "m@v2", other, x)
        db.deploy_model("m", "v2")
        assert db.model_info("m").model is other
        assert_forward(db, "m", other, x)
        assert_forward(db, "m@v2", other, x)
        assert built == ["m@v2"]


# -- parity ----------------------------------------------------------------------


def make_catalog(capacity=256):
    return Catalog(BufferPool(InMemoryDiskManager(16 * 1024), capacity_pages=capacity))


@pytest.mark.parametrize("factor", [1, 4])
def test_prepared_and_fresh_trees_agree_bit_for_bit(rng, factor):
    """At f = 1 and f > 1, with a ragged last stripe: a prepared tree on
    resident blocks, a fresh tree on the same blocks and a fresh tree on
    freshly stored tables give the same bits."""
    floor, stripe = 8, 48
    model = Model(
        "m",
        [Sigmoid(), Linear(70, 40, rng=rng, name="fc0"), ReLU(),
         Linear(40, 10, rng=rng, name="fc1"), Softmax()],
        (70,),
    )
    side = factor * floor
    config = SystemConfig(
        memory_threshold_bytes=compute_block_bytes(side, 40, stripe) if factor > 1 else 1,
        tensor_block_rows=floor,
        tensor_block_cols=floor,
    )
    info = VersionRecord("m", model)
    catalog = make_catalog()
    prepared = RelationCentricEngine(catalog, config, stripe_rows=stripe)
    sides = []
    build = prepared.vector_pipeline

    def spy(layers, block_side, model_info):
        sides.append(block_side)
        return build(layers, block_side, model_info)

    prepared.vector_pipeline = spy
    for batch in (2 * stripe + 5, stripe + 3):
        x = rng.normal(size=(batch, 70))
        first = prepared.run_vector_stage(model.layers, x, info).outputs
        again = prepared.run_vector_stage(model.layers, x, info).outputs
        fresh = RelationCentricEngine(catalog, config, stripe_rows=stripe)
        cold = RelationCentricEngine(make_catalog(), config, stripe_rows=stripe)
        for other in (fresh, cold):
            np.testing.assert_array_equal(
                other.run_vector_stage(model.layers, x, info).outputs, first
            )
        np.testing.assert_array_equal(again, first)
        np.testing.assert_allclose(first, model.forward(x), rtol=1e-6, atol=1e-12)
    assert sides == [side]  # one tree for every stripe of every call


def test_threads_running_one_stage_each_get_their_own_answer(rng):
    """Four threads (more than the cores) share one engine, its trees and
    its resident blocks, each on its own input, with thread switches
    forced often."""
    model = two_layer_model(rng)
    info = VersionRecord("m", model)
    engine = RelationCentricEngine(
        make_catalog(), SystemConfig(tensor_block_rows=BLOCK, tensor_block_cols=BLOCK),
        stripe_rows=16,
    )
    inputs = [rng.normal(size=(rows, 40)) for rows in (37, 21, 16, 5)]
    expected = [engine.run_vector_stage(model.layers, x, info).outputs for x in inputs]
    start = threading.Barrier(len(inputs))
    wrong, done = [], []

    def work(k):
        start.wait()
        for __ in range(20):
            out = engine.run_vector_stage(model.layers, inputs[k], info).outputs
            if out.shape != expected[k].shape or not np.array_equal(out, expected[k]):
                wrong.append(k)
        done.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == [0, 1, 2, 3] and wrong == []
