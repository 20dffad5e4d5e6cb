"""The relation-centric engine multiplying on compute blocks: stored
weight blocks re-blocked ``f`` times larger as they stream, kept resident
in the buffer pool, under a stage tree that is built once and re-bound
per stripe."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig, mb
from repro.core.cost import compute_block_bytes
from repro.dlruntime import Linear, MemoryBudget, Model, ReLU, Sigmoid, Softmax
from repro.engines import RelationCentricEngine
from repro.relational.operators.instrument import instrument
from repro.storage import (
    BufferPool,
    Catalog,
    HeapFile,
    InMemoryDiskManager,
    RowSerde,
    VersionRecord,
)
from repro.tensor import block_table_schema

FLOOR = 8
STRIPE = 48


def make_catalog(capacity=256):
    pool = BufferPool(InMemoryDiskManager(16 * 1024), capacity_pages=capacity)
    return Catalog(pool), pool


def walk(op):
    yield op
    for child in op.children():
        yield from walk(child)


def spy_pipelines(engine):
    """Record every stage pipeline the engine builds, instrumented, with
    the side of its blocks."""
    built = []
    build = engine.vector_pipeline

    def spy(layers, side, model_info):
        pipeline, stripes = build(layers, side, model_info)
        built.append((pipeline, instrument(pipeline), side))
        return pipeline, stripes

    engine.vector_pipeline = spy
    return built


def block_pairs(built) -> int:
    """Input × weight block pairs the joins emitted."""
    return sum(
        report.for_node(node).rows
        for pipeline, report, __ in built
        for node in walk(pipeline)
        if node.describe().startswith("HashJoin")
    )


# Never a multiple of FLOOR, so no dimension is a multiple of any side.
def _ragged(lo, hi):
    return st.integers(lo, hi).filter(lambda n: n % FLOOR)


@settings(max_examples=50, deadline=None)
@given(
    in_features=_ragged(300, 400),
    widths=st.lists(_ragged(1, 100), min_size=1, max_size=3),
    lead=st.sampled_from([None, ReLU, Sigmoid]),
    activations=st.lists(
        st.sampled_from([None, ReLU, Sigmoid, Softmax]), min_size=3, max_size=3
    ),
    batch=st.sampled_from([STRIPE - 1, STRIPE + 1, 2 * STRIPE + 1]),
    factor=st.sampled_from([1, 2, 4, 8]),
    seed=st.integers(0, 2**16),
)
def test_compute_blocks_match_the_oracle(
    in_features, widths, lead, activations, batch, factor, seed
):
    """Random Linear/ReLU/Sigmoid/Softmax chains on ragged sizes, with the
    threshold set so the engine picks ``factor``."""
    rng = np.random.default_rng(seed)
    layers = [lead()] if lead is not None else []
    dims = [in_features, *widths]
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        layers.append(Linear(fan_in, fan_out, rng=rng, name=f"fc{i}"))
        if activations[i] is not None:
            layers.append(activations[i]())
    model = Model("chain", layers, input_shape=(in_features,))
    x = rng.normal(size=(batch, in_features))
    rows = min(STRIPE, batch)
    side = factor * FLOOR
    threshold = compute_block_bytes(side, max(widths), rows) if factor > 1 else 1
    config = SystemConfig(
        memory_threshold_bytes=threshold,
        tensor_block_rows=FLOOR,
        tensor_block_cols=FLOOR,
    )
    # Room for every compute block: at f = 1 each 8×8 block takes a frame.
    engine = RelationCentricEngine(make_catalog(2048)[0], config, stripe_rows=STRIPE)
    built = spy_pipelines(engine)
    result = engine.run_vector_stage(model.layers, x, VersionRecord("chain", model))

    np.testing.assert_allclose(result.outputs, model.forward(x), rtol=1e-6, atol=1e-12)
    assert {block_side for *__, block_side in built} == {side}
    stripes = -(-batch // STRIPE)
    per_stripe = sum(-(-i // side) * -(-o // side) for i, o in zip(dims, dims[1:]))
    assert block_pairs(built) == stripes * per_stripe
    # One tree per Softmax-free run with a Linear in it, whatever the
    # number of stripes; every stripe runs it once.
    runs = [[]]
    for layer in layers:
        if isinstance(layer, Softmax):
            runs.append([])
        else:
            runs[-1].append(layer)
    assert len(built) == sum(1 for run in runs if run)
    assert all(report.for_node(tree).opened == stripes for tree, report, __ in built)
    reblocks = [
        node for pipeline, __, __ in built for node in walk(pipeline)
        if node.describe().startswith("Reblock")
    ]
    assert len(reblocks) == len(widths)
    # Each weight table's stored blocks are read once, by the first
    # stripe; the later stripes multiply on the resident compute blocks.
    scans = [
        (report.for_node(node).rows, node.table.row_count)
        for pipeline, report, __ in built for node in walk(pipeline)
        if node.describe().startswith("SeqScan")
    ]
    assert len(scans) == len(widths)
    assert all(rows == blocks > 0 for rows, blocks in scans)
    footprint = compute_block_bytes(side, max(widths), rows) if factor > 1 else 0
    assert result.peak_memory_bytes >= rows * in_features * 8 + footprint


# The pipeline of fc0 → ReLU → fc1 at f = 1: the tree from before compute
# blocks existed, with the weight scans decoded once by ``Reblock(1x, …)``.
PARENT_TREE = """\
MapRows(bias-add, batch=64)
  Aggregate(group by [row_blk, col_blk, nrows, ncols]; SUM_BLOCK(...) AS data)
    MapRows(block-multiply, batch=8)
      HashJoin[inner](a_col_blk=b_row_blk)
        Project(row_blk AS a_row_blk, col_blk AS a_col_blk, nrows AS a_nrows, ncols AS a_ncols, data AS a_data)
          MapRows(relu, batch=64)
            MapRows(bias-add, batch=64)
              Aggregate(group by [row_blk, col_blk, nrows, ncols]; SUM_BLOCK(...) AS data)
                MapRows(block-multiply, batch=8)
                  HashJoin[inner](a_col_blk=b_row_blk)
                    Project(row_blk AS a_row_blk, col_blk AS a_col_blk, nrows AS a_nrows, ncols AS a_ncols, data AS a_data)
                      GeneratorScan(stripe)
                    Project(row_blk AS b_row_blk, col_blk AS b_col_blk, nrows AS b_nrows, ncols AS b_ncols, data AS b_data)
                      Reblock(1x, 16x16)
                        SeqScan(__model_m_fc0_weight)
        Project(row_blk AS b_row_blk, col_blk AS b_col_blk, nrows AS b_nrows, ncols AS b_ncols, data AS b_data)
          Reblock(1x, 16x16)
            SeqScan(__model_m_fc1_weight)"""


def _two_layer_model(rng):
    return Model(
        "m",
        [Linear(40, 24, rng=rng, name="fc0"), ReLU(), Linear(24, 10, rng=rng, name="fc1")],
        (40,),
    )


def test_factor_one_builds_the_stored_block_pipeline(rng):
    model = _two_layer_model(rng)
    config = SystemConfig(
        memory_threshold_bytes=1, tensor_block_rows=16, tensor_block_cols=16
    )
    engine = RelationCentricEngine(make_catalog()[0], config, stripe_rows=12)
    built = spy_pipelines(engine)
    x = rng.normal(size=(12, 40))
    result = engine.run_vector_stage(model.layers, x, VersionRecord("m", model))
    np.testing.assert_allclose(result.outputs, model.forward(x), rtol=1e-6)
    [(pipeline, __, side)] = built
    assert side == 16
    assert pipeline.explain() == PARENT_TREE
    # Nothing but the stripe and its output.
    assert result.peak_memory_bytes == x.nbytes + result.outputs.nbytes


def test_footprint_is_borrowed_within_a_limited_budget(rng):
    """Compute blocks are charged per stripe, and a tighter budget shrinks
    them, while the weights (1.6 MB) spill through a 256 KiB pool."""
    model = Model(
        "wide",
        [Linear(2000, 100, rng=rng, name="fc0"), ReLU(), Linear(100, 30, rng=rng, name="fc1")],
        (2000,),
    )
    x = rng.normal(size=(100, 2000))
    stripe = x[:64].nbytes
    config = SystemConfig(
        memory_threshold_bytes=mb(64), tensor_block_rows=32, tensor_block_cols=32
    )
    info = VersionRecord("wide", model)
    catalog, pool = make_catalog(capacity=16)
    tight = stripe + compute_block_bytes(128, 100, 64)
    sides = {}
    for limit in (mb(4), tight):
        engine = RelationCentricEngine(
            catalog, config, budget=MemoryBudget(limit, "relation"), stripe_rows=64
        )
        built = spy_pipelines(engine)
        pool.stats.reset()
        result = engine.run_vector_stage(model.layers, x, info)
        np.testing.assert_allclose(result.outputs, model.forward(x), rtol=1e-6)
        assert pool.stats.evictions > 0
        side = sides[limit] = built[0][2]
        footprint = compute_block_bytes(side, 100, 64)
        assert stripe + footprint <= result.peak_memory_bytes <= limit
    # mb(4): only the stripe caps the blocks (side·(100 + 64)·8 ≤ stripe).
    assert sides == {mb(4): 512, tight: 128}


def test_weights_scatter_from_frames_and_stripes_stay_views(rng, monkeypatch):
    """In an ``f > 1`` stage no weight row is read into a row buffer or
    deserialized, and every stripe block the joins see is a read-only view
    of ``x``."""
    model = Model(
        "m",
        [Linear(300, 70, rng=rng, name="fc0"), ReLU(), Linear(70, 20, rng=rng, name="fc1")],
        (300,),
    )
    x = rng.normal(size=(200, 300))
    config = SystemConfig(
        memory_threshold_bytes=mb(64), tensor_block_rows=32, tensor_block_cols=32
    )
    # 32×32 blocks are 8 229-byte records: overflow rows on 4 KiB pages.
    pool = BufferPool(InMemoryDiskManager(4096), capacity_pages=64)
    engine = RelationCentricEngine(Catalog(pool), config, stripe_rows=100)
    info = VersionRecord("m", model)

    weight_reads = []
    read_overflow = HeapFile._read_overflow_row
    deserialize = RowSerde.deserialize

    def spy_overflow(heap, payload):
        weight_reads.append("overflow row")
        return read_overflow(heap, payload)

    def spy_deserialize(serde, data):
        if serde.schema == block_table_schema():
            weight_reads.append("deserialize")
        return deserialize(serde, data)

    monkeypatch.setattr(HeapFile, "_read_overflow_row", spy_overflow)
    monkeypatch.setattr(RowSerde, "deserialize", spy_deserialize)
    stripes, plans = [], []
    build = engine.vector_pipeline

    def spy(layers, side, model_info):
        plan, source = build(layers, side, model_info)
        bind = source.bind

        def spy_bind(matrix):
            if matrix is not None:
                stripes.extend(data for *__, data in matrix.block_rows())
            bind(matrix)

        source.bind = spy_bind
        plans.append(plan)
        return plan, source

    engine.vector_pipeline = spy
    # The first call stores the weight tables, then reads them from frames.
    result = engine.run_vector_stage(model.layers, x, info)
    np.testing.assert_allclose(result.outputs, model.forward(x), rtol=1e-6)
    assert pool.stats.hits > 0 and weight_reads == []
    # f = 4: two 100-row stripes, each two 128-wide blocks and a ragged one.
    assert [block.shape for block in stripes] == [(100, 128), (100, 128), (100, 44)] * 2
    for block in stripes:
        assert not block.flags.writeable and np.shares_memory(block, x)
    # The plan still shows the re-block over the weight table's scan.
    lines = [line.strip() for line in plans[0].explain().splitlines()]
    for name in ("fc0", "fc1"):
        assert lines[lines.index(f"SeqScan(__model_m_{name}_weight)") - 1] == (
            "Reblock(4x, 128x128)"
        )
