"""SQL PREDICT served through session-managed result caches (Sec. 5.1)."""

import numpy as np
import pytest

from repro import Database
from repro.config import mb
from repro.data import feature_column_names, fraud_schema, fraud_transactions
from repro.errors import SqlError
from repro.models import fraud_fc_256


@pytest.fixture
def db():
    database = Database(memory_threshold_bytes=mb(64))
    features, __, rows = fraud_transactions(200, seed=61)
    database.create_table("tx", fraud_schema())
    database.load_rows("tx", rows)
    database.register_model(fraud_fc_256(), name="fraud")
    yield database, features
    database.close()


FEATURES = ", ".join(feature_column_names())
QUERY = f"SELECT id, PREDICT(fraud, {FEATURES}) AS p FROM tx"


def test_cached_predict_matches_exact(db):
    database, features = db
    exact = database.execute(QUERY).column("p")
    database.enable_result_cache("fraud", distance_threshold=1e-9, index="flat")
    cached_first = database.execute(QUERY).column("p")
    cached_second = database.execute(QUERY).column("p")
    assert cached_first == exact
    assert cached_second == exact
    cache = database.result_cache("fraud")
    assert cache.stats.hits >= 200  # the second pass hit for every row


def test_cache_entries_become_a_catalog_table(db):
    database, __ = db
    database.enable_result_cache("fraud", distance_threshold=0.1, index="hnsw")
    database.execute(QUERY)
    table = database.catalog.get_table("__cache_fraud")
    assert table.row_count == len(database.result_cache("fraud"))
    # The cache relation is an ordinary table: queryable through SQL.
    cur = database.execute(
        "SELECT COUNT(*) AS n, MIN(prediction) AS lo, MAX(prediction) AS hi "
        "FROM __cache_fraud"
    )
    n, lo, hi = cur.fetchone()
    assert n == table.row_count
    assert 0 <= lo <= hi <= 1


def test_exact_cache_mode(db):
    database, features = db
    database.enable_result_cache("fraud", distance_threshold=0.0, exact=True)
    first = database.execute(QUERY).column("p")
    second = database.execute(QUERY).column("p")
    assert first == second
    cache = database.result_cache("fraud")
    assert cache.stats.hits == 200
    assert cache.stats.misses == 200


def test_disable_restores_exact_serving(db):
    database, __ = db
    database.enable_result_cache("fraud", distance_threshold=5.0, index="flat")
    database.execute(QUERY)
    database.disable_result_cache("fraud")
    assert database.result_cache("fraud") is None
    exact = database.execute(QUERY).column("p")
    assert len(exact) == 200


def test_unknown_index_rejected(db):
    database, __ = db
    with pytest.raises(SqlError):
        database.enable_result_cache("fraud", distance_threshold=1.0, index="btree")


@pytest.mark.parametrize("exact", [True, False])
def test_cache_serves_emit_cache_events(db, exact):
    # Each serve ends in one cache.hit / cache.miss event, exact or ANN.
    database, features = db
    database.enable_result_cache(
        "fraud", distance_threshold=1e-9, index="flat", exact=exact
    )
    x = features[:4]
    database.predict_labels("fraud", x)
    database.predict_labels("fraud", x)
    cache = database.result_cache("fraud")
    assert (cache.stats.hits, cache.stats.misses) == (4, 4)
    events = database.execute(
        "SELECT kind, detail FROM sys.events WHERE kind LIKE 'cache.%'"
    ).rows
    assert [kind for kind, __ in events] == ["cache.miss", "cache.hit"]
    kind = "exact" if exact else "ann"
    assert all(f"cache={kind}" in detail for __, detail in events)


def test_versioned_name_resolves_alike_in_every_cache_method(db):
    # enable, result_cache and disable all resolve "fraud@v2" to the same
    # version: the cache enabled under that name is the one read back and
    # the one disabled.
    database, features = db
    database.register_model_version("fraud", "v2", model=fraud_fc_256())
    database.enable_result_cache("fraud@v2", distance_threshold=0.0, exact=True)
    cache = database.result_cache("fraud@v2")
    assert cache is not None
    x = features[:4]
    database.predict_labels("fraud@v2", x)
    database.predict_labels("fraud@v2", x)
    assert (cache.stats.hits, cache.stats.misses) == (4, 4)
    database.disable_result_cache("fraud@v2")
    assert database.result_cache("fraud@v2") is None
    database.predict_labels("fraud@v2", x)
    assert (cache.stats.hits, cache.stats.misses) == (4, 4)
