"""A convolution the optimizer lowers to the relation-centric engine, served
through ``Database.predict`` / ``predict_labels`` / SQL: the answer is
``Model.forward``'s, and no call leaves a table behind — alone, or with
ReLU, MaxPool2d, Flatten, Linear and Softmax layers in its stage."""

import numpy as np
import pytest

from repro import Database
from repro.dlruntime import Conv2d, Flatten, Linear, MaxPool2d, Model, ReLU, Softmax
from repro.errors import StageTimeoutError
from repro.models import cache_cnn, deepbench_conv1, landcover


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


# -- the gate: every CNN, lowered adaptively or forced, on every path ----------


def pooled_cnn():
    """MaxPool2d and padding between two convs (the pooled CNN of
    ``test_hybrid_runs_pooled_cnn_as_udf``)."""
    rng = np.random.default_rng(9)
    return Model(
        "pooled",
        [
            Conv2d(1, 8, (3, 3), padding=1, rng=rng, name="c1"),
            ReLU(),
            MaxPool2d(2),
            Conv2d(8, 4, (3, 3), padding=1, rng=rng, name="c2"),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(4 * 4 * 4, 5, rng=rng, name="out"),
            Softmax(),
        ],
        input_shape=(16, 16, 1),
    )


MODELS = {
    "deepbench_conv1": lambda: deepbench_conv1(scale=0.2),
    "landcover": lambda: landcover(spatial=24, out_channels=16),
    "cache_cnn": cache_cnn,
    "pooled_cnn": pooled_cnn,
}

#: The memory threshold of each plan: 64 KiB lowers what exceeds it, and
#: one byte lowers every operator, as ``force="relation-centric"`` does.
THRESHOLDS = {"adaptive": 64 * 1024, "forced": 1}


def sql_predict(db, x):
    """Labels of ``SELECT PREDICT(m, f0, …)`` over ``x``, one flat row each."""
    flat = x.reshape(len(x), -1)
    names = [f"f{i}" for i in range(flat.shape[1])]
    if not db.catalog.has_table("img"):
        db.execute(f"CREATE TABLE img (id INT, {', '.join(n + ' DOUBLE' for n in names)})")
        db.load_rows("img", [(i, *map(float, row)) for i, row in enumerate(flat)])
    rows = db.execute(f"SELECT id, PREDICT(m, {', '.join(names)}) AS p FROM img").rows
    return np.array([label for __, label in sorted(rows)])


PATHS = {
    "predict": lambda db, x, force: db.predict("m", x, force=force).outputs,
    "predict_labels": lambda db, x, force: db.predict_labels("m", x),
    "sql": lambda db, x, force: sql_predict(db, x),
    # with a result cache on, whose misses run the model on image rows
    "sql_cached": lambda db, x, force: sql_predict(db, x),
}


#: A result cache keeps one label per input row, so it serves the
#: classifiers; the segmentation models answer a label map per image.
CASES = [
    (name, path)
    for name in MODELS
    for path in PATHS
    if path != "sql_cached" or name in ("cache_cnn", "pooled_cnn")
]


@pytest.mark.parametrize("plan", THRESHOLDS)
@pytest.mark.parametrize("name,path", CASES)
def test_a_lowered_cnn_answers_the_forward_pass(name, plan, path):
    model = MODELS[name]()
    x = np.random.default_rng(5).standard_normal((2,) + tuple(model.input_shape))
    expected = model.forward(x)
    if path != "predict":
        expected = np.argmax(expected, axis=-1)
    force = "relation-centric" if plan == "forced" else None
    with Database() as db:
        db.register_model(model, name="m")
        db.set_option("memory_threshold_bytes", THRESHOLDS[plan])
        if path == "sql_cached":
            db.enable_result_cache("m", distance_threshold=1e-9, index="flat")
        stages = db.inference_plan("m", 2).stages
        lowered = [s for s in stages if s.representation.value == "relation-centric"]
        assert any(isinstance(layer, Conv2d) for s in lowered for layer in s.layers)
        if plan == "forced":
            assert lowered == stages and len(stages) == 1
        PATHS[path](db, x, force)  # stores the weight tables (and the input)
        tables = table_names(db)
        for __ in range(2):
            np.testing.assert_allclose(PATHS[path](db, x, force), expected, rtol=1e-6)
            assert table_names(db) == tables


def test_a_lowered_conv_keeps_the_stage_deadline():
    """The conv stage checks the executor's stage deadline before every
    stripe, as a dense stage does."""
    model = deepbench_conv1(scale=0.2)
    x = np.random.default_rng(3).standard_normal((2,) + tuple(model.input_shape))
    with Database(resilience_stage_timeout_ms=0.0001, resilience_enabled=False) as db:
        db.register_model(model, name="m")
        with pytest.raises(StageTimeoutError):
            db.predict("m", x, force="relation-centric")
