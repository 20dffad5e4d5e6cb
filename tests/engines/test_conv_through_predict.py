"""A convolution the optimizer lowers to the relation-centric engine, served
through ``Database.predict`` / ``predict_labels`` / SQL: the answer is
``Model.forward``'s, and no call leaves a table behind."""

import numpy as np
import pytest

from repro import Database
from repro.models import deepbench_conv1


@pytest.fixture
def served():
    model = deepbench_conv1(scale=0.2)  # one 1×1 conv on 22×22×13
    db = Database()
    db.register_model(model, name="conv1")
    db.set_option("memory_threshold_bytes", 64 * 1024)
    x = np.random.default_rng(3).standard_normal((2,) + tuple(model.input_shape))
    yield db, model, x
    db.close()


def table_names(db):
    return sorted(row[0] for row in db.execute("SELECT name FROM sys.tables").rows)


def test_the_conv_is_lowered(served):
    db, __, x = served
    plan = db.inference_plan("conv1", x.shape[0])
    assert [stage.representation.value for stage in plan.stages] == ["relation-centric"]


def test_predict_returns_the_forward_pass_and_keeps_no_result_table(served):
    db, model, x = served
    db.predict("conv1", x)  # the first call stores the kernel's block table
    tables = table_names(db)
    assert tables and all(name.startswith("__model_conv1") for name in tables)
    for __ in range(3):
        outputs = db.predict("conv1", x).outputs
        np.testing.assert_allclose(outputs, model.forward(x), rtol=1e-6)
        assert table_names(db) == tables


def test_predict_labels_are_the_forward_pass_argmax(served):
    db, model, x = served
    db.predict_labels("conv1", x)
    tables = table_names(db)
    labels = db.predict_labels("conv1", x)
    np.testing.assert_array_equal(labels, np.argmax(model.forward(x), axis=-1))
    assert table_names(db) == tables
