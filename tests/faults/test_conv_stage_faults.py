"""A lowered convolution multiplies on its kernel's compute blocks through a
prepared tree, so it keeps the prepared stages' rules: a storage fault in
its weight scan fails that call only, and a re-stored kernel table
rebuilds the tree.  Hypothesis-free, like the rest of the fault matrix."""

import numpy as np
import pytest

from repro import Database
from repro.dlruntime import Conv2d, Model, ReLU
from repro.errors import InjectedFaultError

KB = 1024


def conv_model():
    # A 288 × 64 kernel matrix: 144 KiB of weights against a 16 KiB pool,
    # so every call reads the kernel's pages from disk.
    rng = np.random.default_rng(11)
    conv = Conv2d(32, 64, (3, 3), padding=1, rng=rng, name="c1")
    return Model("cnn", [conv, ReLU()], input_shape=(6, 6, 32))


def make_db(**options):
    # A threshold of one byte lowers the conv to the relation engine.
    return Database(memory_threshold_bytes=1, **options)


def table_names(db):
    return sorted(row[0] for row in db.execute("SELECT name FROM sys.tables").rows)


@pytest.mark.parametrize("site", ["disk.read_page", "bufferpool.evict"])
def test_a_storage_fault_in_the_kernel_scan_fails_only_that_call(site):
    model = conv_model()
    x = np.random.default_rng(2).standard_normal((2, 6, 6, 32))
    with make_db(page_size=4 * KB, buffer_pool_bytes=16 * KB, faults_seed=5) as db:
        db.register_model(model, name="m")
        np.testing.assert_allclose(db.predict("m", x).outputs, model.forward(x), rtol=1e-6)
        assert db.buffer_pool.resident_blocks == 0  # the next call scans pages
        tables = table_names(db)
        db.faults.arm(site=site, nth=3, transient=False)
        with pytest.raises(InjectedFaultError):
            db.predict("m", x)
        assert table_names(db) == tables
        for __ in range(2):
            np.testing.assert_allclose(
                db.predict("m", x).outputs, model.forward(x), rtol=1e-6
            )
        assert table_names(db) == tables


def test_a_re_stored_kernel_table_rebuilds_the_tree():
    model = conv_model()
    x = np.random.default_rng(3).standard_normal((2, 6, 6, 32))
    with make_db() as db:
        db.register_model(model, name="m")
        engine = db._models.executor.relation_engine
        built = []
        build = engine.vector_pipeline
        engine.vector_pipeline = lambda *args: built.append(args[1]) or build(*args)
        np.testing.assert_allclose(db.predict("m", x).outputs, model.forward(x), rtol=1e-6)
        db.predict("m", x)
        assert len(built) == 1  # the second call re-ran the prepared tree
        db.execute("DROP TABLE __model_m_c1_weight")
        model.layers[0].kernels.data *= -2.0
        np.testing.assert_allclose(db.predict("m", x).outputs, model.forward(x), rtol=1e-6)
        assert len(built) == 2
        assert db.catalog.has_table("__model_m_c1_weight")
