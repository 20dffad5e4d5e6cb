"""Databases with a path persist tables AND models across sessions."""

import numpy as np
import pytest

from repro import Database
from repro.data import feature_column_names, fraud_schema, fraud_transactions
from repro.models import cache_cnn, fraud_fc_256


def test_tables_survive_reopen(tmp_path):
    path = str(tmp_path / "db.pages")
    with Database(path=path) as db:
        db.execute("CREATE TABLE t (id INT, name TEXT, score DOUBLE)")
        db.execute("INSERT INTO t VALUES (1, 'a', 0.5), (2, 'b', NULL)")
    with Database(path=path) as db:
        cur = db.execute("SELECT id, name, score FROM t ORDER BY id")
        assert cur.rows == [(1, "a", 0.5), (2, "b", None)]
        # The reopened table is writable.
        db.execute("INSERT INTO t VALUES (3, 'c', 1.5)")
        assert db.execute("SELECT COUNT(*) AS n FROM t").fetchone() == (3,)
    with Database(path=path) as db:
        assert db.execute("SELECT COUNT(*) AS n FROM t").fetchone() == (3,)


def test_models_survive_reopen_with_identical_predictions(tmp_path):
    path = str(tmp_path / "db.pages")
    features, __, rows = fraud_transactions(100, seed=71)
    model = fraud_fc_256()
    expected = model.predict(features)
    feature_list = ", ".join(feature_column_names())
    with Database(path=path) as db:
        db.create_table("tx", fraud_schema())
        db.load_rows("tx", rows)
        db.register_model(model, name="fraud")
    with Database(path=path) as db:
        info = db.model_info("fraud")
        np.testing.assert_array_equal(
            info.model.layers[0].weight.data, model.layers[0].weight.data
        )
        cur = db.execute(f"SELECT PREDICT(fraud, {feature_list}) AS p FROM tx")
        np.testing.assert_array_equal(np.array(cur.column("p")), expected)


def test_conv_model_round_trips(tmp_path):
    path = str(tmp_path / "db.pages")
    model = cache_cnn(seed=72)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 28, 28, 1))
    expected = model.forward(x)
    with Database(path=path) as db:
        db.register_model(model, name="cnn")
    with Database(path=path) as db:
        restored = db.model_info("cnn").model
        np.testing.assert_allclose(restored.forward(x), expected, atol=1e-12)
        assert restored.param_count == model.param_count


def test_reopened_models_are_aot_compiled(tmp_path):
    path = str(tmp_path / "db.pages")
    with Database(path=path) as db:
        db.register_model(fraud_fc_256(), name="fraud")
    with Database(path=path) as db:
        plan = db.inference_plan("fraud", 64)
        assert plan.is_single_udf


def test_fresh_path_has_no_sidecar_effects(tmp_path):
    path = str(tmp_path / "empty.pages")
    with Database(path=path) as db:
        assert list(db.catalog.tables()) == []
    # Reopen: sidecar exists but is empty of content.
    with Database(path=path) as db:
        assert list(db.catalog.tables()) == []
        assert db.lifecycle.snapshot().models() == []


def test_in_memory_database_does_not_write_sidecars(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with Database() as db:
        db.execute("CREATE TABLE t (x INT)")
    import os

    assert not any(p.endswith(".catalog") for p in os.listdir(tmp_path))


def _prepared_v2(path):
    """A file-backed database holding ``fraud`` plus a prepared ``v2``."""
    db = Database(path=path)
    db.register_model(fraud_fc_256(), name="fraud")
    db.register_model_version("fraud", "v2", model=fraud_fc_256(seed=5))
    return db


def test_prepared_versions_survive_reopen(tmp_path):
    from repro.errors import DeploymentError

    path = str(tmp_path / "db.pages")
    features, __, ___ = fraud_transactions(32, seed=73)
    v2_labels = fraud_fc_256(seed=5).predict(features)
    with _prepared_v2(path) as db:
        shown = db.execute("SHOW MODELS").rows
        assert [row[0] for row in shown] == ["fraud", "fraud@v2"]
    with Database(path=path) as db:
        assert db.execute("SHOW MODELS").rows == shown
        entry = db.lifecycle.snapshot().entry("fraud")
        assert entry.candidates() == [("v1", "serving"), ("v2", "ready")]
        with pytest.raises(DeploymentError, match="already has a version"):
            db.register_model_version("fraud", "v2", model=fraud_fc_256())
        db.execute("DEPLOY MODEL fraud VERSION v2")
        np.testing.assert_array_equal(
            db.predict_labels("fraud", features), v2_labels
        )


def test_sidecar_keeps_the_flat_format_2_layout(tmp_path):
    """The writer's output is what the pre-record-collapse writer produced
    (format 2: one flat ``models`` list, versions named ``m@v``), so files
    written before and after it restore through the same path."""
    import json

    from repro.storage.persist import sidecar_path

    path = str(tmp_path / "db.pages")
    _prepared_v2(path).close()
    with open(sidecar_path(path), encoding="utf-8") as f:
        sidecar = json.load(f)
    assert set(sidecar) == {"version", "block_shape", "tables", "models"}
    assert sidecar["version"] == 2
    assert [m["name"] for m in sidecar["models"]] == ["fraud", "fraud@v2"]
    for entry in sidecar["models"]:
        assert set(entry) == {
            "name", "input_shape", "model_name", "layers", "block_tables",
            "metadata",
        }
    # An "m@v" entry whose base model is absent restores as a model of
    # that name rather than failing the whole open.
    sidecar["models"] = sidecar["models"][1:]
    with open(sidecar_path(path), "w", encoding="utf-8") as f:
        json.dump(sidecar, f)
    with Database(path=path) as db:
        assert [row[0] for row in db.execute("SHOW MODELS").rows] == ["fraud@v2"]
        assert db.predict_labels("fraud@v2", np.zeros((1, 28))).shape == (1,)
