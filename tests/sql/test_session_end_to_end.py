import gc
import tracemalloc

import numpy as np
import pytest

from repro import Database, Representation
from repro.data import fraud_transactions
from repro.errors import (
    CatalogError,
    ConfigError,
    PlanError,
    SchemaError,
    SqlError,
)
from repro.models import fraud_fc_256


@pytest.fixture
def db():
    database = Database()
    yield database
    database.close()


@pytest.fixture
def people_db(db):
    db.execute("CREATE TABLE people (id INT, age INT, name TEXT)")
    db.execute(
        "INSERT INTO people VALUES (1, 30, 'ann'), (2, 25, 'bob'), "
        "(3, 30, 'cat'), (4, NULL, 'dee')"
    )
    return db


def test_create_insert_select_star(people_db):
    cur = people_db.execute("SELECT * FROM people")
    assert cur.columns == ("id", "age", "name")
    assert len(cur) == 4


def test_where_and_expressions(people_db):
    cur = people_db.execute(
        "SELECT name, age + 1 AS age1 FROM people WHERE age >= 30"
    )
    assert sorted(cur.rows) == [("ann", 31), ("cat", 31)]


def test_order_by_limit_offset(people_db):
    cur = people_db.execute(
        "SELECT name FROM people ORDER BY age DESC, name LIMIT 2 OFFSET 1"
    )
    # Postgres semantics: NULLS FIRST under DESC, then ties break on name:
    # dee(NULL), ann(30), cat(30), bob(25); OFFSET 1 LIMIT 2 -> ann, cat.
    assert [r[0] for r in cur] == ["ann", "cat"]


def test_group_by_aggregates(people_db):
    cur = people_db.execute(
        "SELECT age, COUNT(*) AS n, MIN(name) AS first FROM people GROUP BY age"
    )
    result = {row[0]: (row[1], row[2]) for row in cur}
    assert result[30] == (2, "ann")
    assert result[25] == (1, "bob")
    assert result[None] == (1, "dee")


def test_global_aggregate(people_db):
    cur = people_db.execute("SELECT COUNT(*) AS n, AVG(age) AS a FROM people")
    assert cur.fetchone() == (4, (30 + 25 + 30) / 3)


def test_join_between_tables(db):
    db.execute("CREATE TABLE a (id INT, v TEXT)")
    db.execute("CREATE TABLE b (aid INT, w DOUBLE)")
    db.execute("INSERT INTO a VALUES (1, 'x'), (2, 'y')")
    db.execute("INSERT INTO b VALUES (1, 1.5), (1, 2.5), (3, 9.0)")
    cur = db.execute(
        "SELECT a.v, b.w FROM a JOIN b ON a.id = b.aid ORDER BY b.w"
    )
    assert cur.rows == [("x", 1.5), ("x", 2.5)]


def test_left_join_preserves_unmatched(db):
    db.execute("CREATE TABLE a (id INT)")
    db.execute("CREATE TABLE b (aid INT)")
    db.execute("INSERT INTO a VALUES (1), (2)")
    db.execute("INSERT INTO b VALUES (1)")
    cur = db.execute("SELECT a.id, b.aid FROM a LEFT JOIN b ON a.id = b.aid")
    assert sorted(cur.rows, key=lambda r: r[0]) == [(1, 1), (2, None)]


def test_left_join_keeps_left_rows_with_null_keys(db):
    db.execute("CREATE TABLE l (id INT, k INT)")
    db.execute("CREATE TABLE r (k INT, v INT)")
    db.execute("INSERT INTO l VALUES (1, 10), (2, NULL), (3, 30)")
    db.execute("INSERT INTO r VALUES (10, 100)")
    cur = db.execute("SELECT l.id, r.v FROM l LEFT JOIN r ON l.k = r.k")
    assert sorted(cur.rows) == [(1, 100), (2, None), (3, None)]


def test_close_frees_pages_without_the_cyclic_gc():
    """A closed in-memory database holds no frames and no pages, even when
    nothing collects its reference cycles."""
    gc.disable()
    tracemalloc.start()
    try:
        database = Database()
        database.execute("CREATE TABLE t (id INT, v DOUBLE)")
        database.load_rows("t", [(i, i / 2) for i in range(20_000)])
        database.execute("SELECT COUNT(*) FROM t")
        held = tracemalloc.get_traced_memory()[0]
        database.close()
        freed = held - tracemalloc.get_traced_memory()[0]
        assert database.buffer_pool.resident_pages == 0
        assert freed > 0.9 * 20_000 * 17  # at least the rows' 17-byte records
    finally:
        tracemalloc.stop()
        gc.enable()


def test_non_equi_join_falls_back_to_nested_loop(db):
    db.execute("CREATE TABLE a (x INT)")
    db.execute("CREATE TABLE b (y INT)")
    db.execute("INSERT INTO a VALUES (1), (5)")
    db.execute("INSERT INTO b VALUES (3)")
    cur = db.execute("SELECT a.x, b.y FROM a JOIN b ON a.x < b.y")
    assert cur.rows == [(1, 3)]


def test_insert_type_validation(db):
    db.execute("CREATE TABLE t (id INT, name TEXT)")
    with pytest.raises(SchemaError):
        db.execute("INSERT INTO t VALUES ('not-an-int', 'x')")


def test_predict_in_sql_matches_direct_inference(db):
    features, __, rows = fraud_transactions(300, seed=3)
    columns = ", ".join(f"f{i} DOUBLE" for i in range(28))
    db.execute(f"CREATE TABLE tx (id INT, {columns}, label INT)")
    db.load_rows("tx", rows)
    model = fraud_fc_256()
    db.register_model(model, name="fraud")
    feature_list = ", ".join(f"f{i}" for i in range(28))
    cur = db.execute(
        f"SELECT id, PREDICT(fraud, {feature_list}) AS pred FROM tx"
    )
    assert cur.columns == ("id", "pred")
    expected = model.predict(features)
    got = np.array(cur.column("pred"))
    np.testing.assert_array_equal(got, expected)


def test_predict_with_where_filter(db):
    features, __, rows = fraud_transactions(100, seed=4)
    columns = ", ".join(f"f{i} DOUBLE" for i in range(28))
    db.execute(f"CREATE TABLE tx (id INT, {columns}, label INT)")
    db.load_rows("tx", rows)
    model = fraud_fc_256()
    db.register_model(model, name="fraud")
    feature_list = ", ".join(f"f{i}" for i in range(28))
    cur = db.execute(
        f"SELECT id, PREDICT(fraud, {feature_list}) AS pred FROM tx WHERE f0 > 0.0"
    )
    mask = features[:, 0] > 0.0
    assert len(cur) == int(mask.sum())
    np.testing.assert_array_equal(
        np.array(cur.column("pred")), model.predict(features[mask])
    )


def test_predict_unknown_model_rejected(db):
    db.execute("CREATE TABLE t (x DOUBLE)")
    with pytest.raises(Exception) as exc:
        db.execute("SELECT PREDICT(ghost, x) FROM t")
    assert "ghost" in str(exc.value)


def test_explain_shows_representations(db):
    features, __, rows = fraud_transactions(10, seed=5)
    columns = ", ".join(f"f{i} DOUBLE" for i in range(28))
    db.execute(f"CREATE TABLE tx (id INT, {columns}, label INT)")
    db.load_rows("tx", rows)
    db.register_model(fraud_fc_256(), name="fraud")
    feature_list = ", ".join(f"f{i}" for i in range(28))
    text = db.explain(f"SELECT PREDICT(fraud, {feature_list}) FROM tx")
    assert "MapRows" in text
    assert "udf-centric" in text  # the adaptive plan for this small model


def test_predict_api_force_representation(db, rng):
    model = fraud_fc_256()
    db.register_model(model, name="fraud")
    x = rng.normal(size=(50, 28))
    adaptive = db.predict("fraud", x)
    forced = db.predict("fraud", x, force="relation-centric")
    np.testing.assert_allclose(adaptive.outputs, forced.outputs, atol=1e-9)
    np.testing.assert_allclose(adaptive.outputs, model.forward(x), atol=1e-12)


def test_set_option_recompiles_plans(db):
    model = fraud_fc_256()
    db.register_model(model, name="fraud")
    plan_before = db.inference_plan("fraud", 256)
    assert plan_before.is_single_udf
    db.set_option("memory_threshold_bytes", 1024)
    plan_after = db.inference_plan("fraud", 256)
    assert Representation.RELATION_CENTRIC in plan_after.representations


def test_set_option_rejects_settings_fixed_at_construction(db):
    # The buffer pool's frames are sized from page_size when the Database
    # is built; accepting a new value would only make the config lie.
    with pytest.raises(ConfigError, match="page_size"):
        db.set_option("page_size", 8192)
    assert db.config.page_size == 64 * 1024
    with pytest.raises(ConfigError, match="nope"):
        db.set_option("nope", 1)


def test_aggregate_mixed_with_predict_rejected(db):
    db.execute("CREATE TABLE t (x DOUBLE)")
    db.register_model(fraud_fc_256(), name="fraud")
    with pytest.raises(PlanError):
        db.execute("SELECT COUNT(*), PREDICT(fraud, x) FROM t")


def test_duplicate_table_rejected(db):
    db.execute("CREATE TABLE t (x INT)")
    with pytest.raises(CatalogError):
        db.execute("CREATE TABLE t (x INT)")


def test_unsupported_statement_type(db):
    with pytest.raises(SqlError):
        db.explain("CREATE TABLE t (x INT)")


def test_database_persists_to_file(tmp_path):
    path = str(tmp_path / "db.pages")
    with Database(path=path) as db:
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (42)")
        cur = db.execute("SELECT x FROM t")
        assert cur.rows == [(42,)]
    import os

    assert os.path.getsize(path) > 0


def test_database_with_each_eviction_policy():
    for policy in ("lru", "clock", "2q"):
        with Database(eviction_policy=policy) as db:
            db.execute("CREATE TABLE t (x INT)")
            db.execute("INSERT INTO t VALUES (1), (2)")
            assert db.execute("SELECT COUNT(*) AS n FROM t").fetchone() == (2,)


def test_invalid_eviction_policy_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        Database(eviction_policy="mru")
