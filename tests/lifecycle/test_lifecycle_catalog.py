"""Unit coverage for the copy-on-write lifecycle catalog and the
deployment state machine: snapshot pinning, generation stamping, SQL
surface, version states, and typed failure modes."""

import numpy as np
import pytest

from repro import Database
from repro.errors import (
    DeploymentError,
    NoServableVersionError,
    SqlParseError,
)
from repro.lifecycle import ModelCatalog
from repro.lifecycle.routing import canary_mask, routing_hashes
from repro.models import fraud_fc_256
from repro.sql.parser import parse
from repro.sql.unparse import unparse


# -- the COW catalog -----------------------------------------------------


def test_snapshots_are_immutable_and_generation_stamped():
    catalog = ModelCatalog()
    assert catalog.generation == 0
    catalog.register_base("m", fraud_fc_256())
    pinned = catalog.snapshot()
    gen_at_pin = pinned.generation
    catalog.add_version("m", "v2", fraud_fc_256())
    catalog.route_canary("m", "v2", 25.0)
    # The pinned snapshot never changed: readers keep the view they took.
    assert pinned.generation == gen_at_pin
    assert pinned.entry("m").canary is None
    assert catalog.snapshot().entry("m").canary == "v2"
    assert catalog.generation > gen_at_pin


def test_publication_history_is_monotonic_and_complete():
    catalog = ModelCatalog()
    catalog.register_base("m", fraud_fc_256())
    catalog.add_version("m", "v2", fraud_fc_256())
    catalog.route_canary("m", "v2", 10.0)
    catalog.promote("m", "v2")
    catalog.rollback("m", serving="v1")
    generations = [gen for gen, _ in catalog.history()]
    assert generations == sorted(generations)
    assert generations[-1] == catalog.generation
    assert catalog.generations() == set(generations)


def test_promote_and_rollback_restate_version_records():
    catalog = ModelCatalog()
    catalog.register_base("m", fraud_fc_256())
    catalog.add_version("m", "v2", fraud_fc_256())
    catalog.promote("m", "v2")
    entry = catalog.snapshot().entry("m")
    assert entry.serving == "v2"
    assert entry.record("v1").state == "retired"
    assert entry.record("v2").state == "serving"
    catalog.rollback("m", serving="v1")
    entry = catalog.snapshot().entry("m")
    assert entry.serving == "v1"
    assert entry.record("v1").state == "serving"
    assert entry.record("v2").state == "retired"


def test_duplicate_version_rejected():
    catalog = ModelCatalog()
    catalog.register_base("m", fraud_fc_256())
    catalog.add_version("m", "v2", fraud_fc_256())
    with pytest.raises(DeploymentError):
        catalog.add_version("m", "v2", fraud_fc_256())


# -- deterministic canary hashing ---------------------------------------


def test_canary_mask_is_deterministic_and_row_stable():
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(512, 28))
    first = canary_mask(routing_hashes(feats), 25.0)
    second = canary_mask(routing_hashes(feats), 25.0)
    np.testing.assert_array_equal(first, second)
    # Row-stable: the same row hashes the same inside any batch.
    solo = canary_mask(routing_hashes(feats[3:4]), 25.0)
    assert solo[0] == first[3]


def test_canary_fraction_tracks_percent():
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(4000, 28))
    frac = canary_mask(routing_hashes(feats), 25.0).mean()
    assert 0.20 <= frac <= 0.30


# -- SQL surface ---------------------------------------------------------


@pytest.mark.parametrize(
    "sql",
    [
        "DEPLOY MODEL fraud VERSION v2",
        "DEPLOY MODEL fraud VERSION v2 CANARY 25%",
        "DEPLOY MODEL fraud VERSION v2 CANARY 12.5%",
        "DEPLOY MODEL fraud VERSION v2 SHADOW",
        "DEPLOY MODEL fraud VERSION v2 CANARY 25% SHADOW",
        "ROLLBACK MODEL fraud",
        "SHOW deployments",
    ],
)
def test_deploy_statements_round_trip(sql):
    stmt = parse(sql)
    assert parse(unparse(stmt)) == stmt


def test_deploy_grammar_rejects_bad_percent():
    with pytest.raises(SqlParseError):
        parse("DEPLOY MODEL m VERSION v2 CANARY 0%")
    with pytest.raises(SqlParseError):
        parse("DEPLOY MODEL m VERSION v2 CANARY 250%")
    with pytest.raises(SqlParseError):
        parse("DEPLOY MODEL m VERSION v2 CANARY oops")


def test_deploy_of_unknown_version_names_candidates():
    with Database() as db:
        db.register_model(fraud_fc_256(), name="fraud")
        with pytest.raises(NoServableVersionError) as excinfo:
            db.execute("DEPLOY MODEL fraud VERSION v9")
        assert "v1" in str(excinfo.value)
        assert excinfo.value.candidates == [("v1", "serving")]


def test_double_deploy_rejected_and_rollback_without_deploy():
    with Database() as db:
        db.register_model(fraud_fc_256(), name="fraud")
        db.register_model_version("fraud", "v2", model=fraud_fc_256())
        db.execute("DEPLOY MODEL fraud VERSION v2 CANARY 10%")
        with pytest.raises(DeploymentError):
            db.execute("DEPLOY MODEL fraud VERSION v2 CANARY 10%")
        db.execute("ROLLBACK MODEL fraud")
        with pytest.raises(DeploymentError):
            db.execute("ROLLBACK MODEL fraud")


def test_show_deployments_reports_full_state_history():
    with Database(deploy_canary_min_requests=4) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        db.register_model_version("fraud", "v2", model=fraud_fc_256())
        db.execute("DEPLOY MODEL fraud VERSION v2 CANARY 50%")
        feats = np.random.default_rng(1).normal(size=(64, 28))
        for _ in range(4):
            db.predict_labels("fraud", feats)
        rows = db.execute("SHOW DEPLOYMENTS").fetchall()
        assert len(rows) == 1
        history = rows[0][-1]
        assert history == "preparing>canary>promoted"
        assert db.lifecycle.snapshot().entry("fraud").serving == "v2"


def test_promoted_deployment_rolls_back_to_previous():
    with Database() as db:
        db.register_model(fraud_fc_256(), name="fraud")
        db.register_model_version("fraud", "v2", model=fraud_fc_256())
        db.execute("DEPLOY MODEL fraud VERSION v2")
        assert db.lifecycle.snapshot().entry("fraud").serving == "v2"
        dep = db.rollback_model("fraud")
        assert dep.history_str() == "preparing>promoted>rolled_back"
        assert db.lifecycle.snapshot().entry("fraud").serving == "v1"


# -- one resolver: every name-taking path follows routing ---------------


def _negated(model):
    """A copy whose output layer is negated: every 2-class label flips."""
    import copy

    from repro.dlruntime.layers import Linear

    clone = copy.deepcopy(model)
    clone.name = f"{model.name}-neg"
    last = [layer for layer in clone.layers if isinstance(layer, Linear)][-1]
    last.weight.data = -last.weight.data
    last.bias.data = -last.bias.data
    return clone


def _fraud_db_with_negated_v2():
    from repro.data import fraud_schema, fraud_transactions

    db = Database()
    features, __, rows = fraud_transactions(32, seed=3)
    db.create_table("tx", fraud_schema())
    db.load_rows("tx", rows)
    model = fraud_fc_256()
    db.register_model(model, name="fraud")
    db.register_model_version("fraud", "v2", model=_negated(model))
    return db, features, model.predict(features)


def test_name_resolution_follows_routing_everywhere():
    from repro.data import feature_column_names

    query = (
        f"SELECT PREDICT(fraud, {', '.join(feature_column_names())}) AS p "
        "FROM tx"
    )
    db, features, v1 = _fraud_db_with_negated_v2()
    with db:
        def served():
            return (
                np.argmax(db.predict("fraud", features).outputs, axis=-1),
                db.predict_labels("fraud", features),
                np.array(db.execute(query).column("p")),
            )

        db.execute("DEPLOY MODEL fraud VERSION v2")
        for labels in served():
            np.testing.assert_array_equal(labels, 1 - v1)
        assert db.inference_plan("fraud", 8).model.name == "fraud-fc-256-neg"
        assert "model=fraud-fc-256-neg" in db.explain(query)
        # An explicit "m@v" pins a version whatever the routing says.
        np.testing.assert_array_equal(
            db.predict_labels("fraud@v1", features), v1
        )

        db.execute("ROLLBACK MODEL fraud")
        for labels in served():
            np.testing.assert_array_equal(labels, v1)
        assert "model=fraud-fc-256," in db.explain(query)


def test_result_cache_attaches_to_the_serving_version():
    db, features, v1 = _fraud_db_with_negated_v2()
    with db:
        db.execute("DEPLOY MODEL fraud VERSION v2")
        db.enable_result_cache("fraud", 0.0, exact=True)
        first = db.predict_labels("fraud", features)
        second = db.predict_labels("fraud", features)
        np.testing.assert_array_equal(first, 1 - v1)
        np.testing.assert_array_equal(second, 1 - v1)
        stats = db.result_cache("fraud").stats
        assert (stats.misses, stats.hits) == (len(features), len(features))
        # A routing change still drops the cache: it was filled by v2.
        db.execute("ROLLBACK MODEL fraud")
        assert db.result_cache("fraud") is None
        np.testing.assert_array_equal(db.predict_labels("fraud", features), v1)


# -- the version manager satellite --------------------------------------


def test_derive_version_demands_one_transform():
    from repro.dedup.versions import derive_version
    from repro.errors import ModelError

    base = fraud_fc_256()
    assert derive_version(base, quantize_bits=8).name.endswith("int8")
    assert derive_version(base, prune_sparsity=0.5).name.endswith("p50")
    with pytest.raises(ModelError):
        derive_version(base)
    with pytest.raises(ModelError):
        derive_version(base, quantize_bits=8, prune_sparsity=0.5)
