"""Deploy-under-load acceptance: version swaps while 8 clients predict.

Two scenarios, both with concurrent client traffic and zero
client-visible errors:

- a good version promoted through a 25% canary (and the canary really
  routes 25% +/- 5 points of the rows);
- a broken version (wrong input width: it compiles but every execution
  raises) that auto-rolls back while the stable version keeps answering
  the whole batch.
"""

import threading
import time

import numpy as np
import pytest

from repro import Database
from repro.models import fraud_fc_256
from repro.models.definitions import one_hidden_fc

CLIENTS = 8
ROWS = 64


class _Clients:
    """Eight threads hammering predict_labels until told to stop."""

    def __init__(self, db: Database, max_calls: int = 400):
        self._db = db
        self._stop = threading.Event()
        self._max_calls = max_calls
        self.errors: list[BaseException] = []
        self.calls = 0
        self._calls_lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._run, args=(seed,), daemon=True)
            for seed in range(CLIENTS)
        ]

    def _run(self, seed: int) -> None:
        rng = np.random.default_rng(100 + seed)
        for _ in range(self._max_calls):
            if self._stop.is_set():
                return
            feats = rng.normal(size=(ROWS, 28))
            try:
                labels = self._db.predict_labels("fraud", feats)
                assert labels.shape == (ROWS,)
            except BaseException as exc:  # noqa: BLE001 - the assertion target
                self.errors.append(exc)
                return
            with self._calls_lock:
                self.calls += 1

    def __enter__(self):
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for t in self._threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in self._threads)


def _wait_for_state(db: Database, deploy_id: int, states, timeout=30.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for dep in db.deployments._deployments:
            if dep.deploy_id == deploy_id and dep.state in states:
                return dep.state
        time.sleep(0.02)
    raise AssertionError(
        f"deployment #{deploy_id} never reached {states}; "
        f"rows={db.execute('SHOW DEPLOYMENTS').fetchall()}"
    )


def test_canary_promotes_under_load_with_zero_client_errors():
    with Database(deploy_canary_min_requests=256) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        # Same seeded init: v2 answers identically, so promotion is safe
        # and any client-visible wobble would be a routing bug.
        db.register_model_version("fraud", "v2", model=fraud_fc_256())
        with _Clients(db) as clients:
            dep = db.deploy_model("fraud", "v2", canary_percent=25.0)
            state = _wait_for_state(db, dep.deploy_id, {"promoted"})
        assert state == "promoted"
        assert clients.errors == []
        assert clients.calls > 0

        # The acceptance bar: a 25% canary routes 25% +/- 5 points.
        assert dep.total_rows >= 1000
        fraction = dep.requests / dep.total_rows
        assert 0.20 <= fraction <= 0.30
        assert dep.failures == 0

        rows = db.execute("SHOW DEPLOYMENTS").fetchall()
        assert [r[-1] for r in rows] == ["preparing>canary>promoted"]
        assert db.lifecycle.snapshot().entry("fraud").serving == "v2"


def test_broken_version_auto_rolls_back_under_load():
    with Database() as db:
        db.register_model(fraud_fc_256(), name="fraud")
        # 27 inputs against 28-wide batches: compiles fine, every
        # execution raises — the canary slice fails, clients never see it.
        db.register_model_version(
            "fraud", "v2", model=one_hidden_fc("fraud-broken", 27, 8, 2)
        )
        with _Clients(db) as clients:
            dep = db.deploy_model("fraud", "v2", canary_percent=25.0)
            state = _wait_for_state(db, dep.deploy_id, {"rolled_back"})
        assert state == "rolled_back"
        assert clients.errors == []
        assert clients.calls > 0
        assert dep.reason in {"breaker-open", "canary-failure"}
        assert dep.failures > 0

        rows = db.execute("SHOW DEPLOYMENTS").fetchall()
        assert [r[-1] for r in rows] == ["preparing>canary>rolled_back"]
        # The old version never stopped serving.
        entry = db.lifecycle.snapshot().entry("fraud")
        assert entry.serving == "v1"
        assert entry.canary is None

        # And the same batch still answers correctly after the rollback.
        feats = np.random.default_rng(0).normal(size=(ROWS, 28))
        labels, gen = db.predict_labels_v("fraud", feats)
        assert labels.shape == (ROWS,)
        assert gen in db.lifecycle.generations()


def test_shadow_divergence_rolls_back():
    with Database(deploy_shadow_min_requests=32) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        # Different seeded init: labels disagree on a healthy fraction of
        # random rows, far above the 2% divergence budget.
        db.register_model_version("fraud", "v2", model=fraud_fc_256(seed=3))
        dep = db.deploy_model("fraud", "v2", shadow=True)
        rng = np.random.default_rng(9)
        for _ in range(4):
            db.predict_labels("fraud", rng.normal(size=(ROWS, 28)))
            if dep.state == "rolled_back":
                break
        assert dep.state == "rolled_back"
        assert dep.reason == "shadow-divergence"
        assert dep.shadow_compared >= 32
        assert dep.shadow_diverged > 0
        assert db.lifecycle.snapshot().entry("fraud").serving == "v1"


def test_shadow_agreement_promotes():
    with Database(deploy_shadow_min_requests=32) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        db.register_model_version("fraud", "v2", model=fraud_fc_256())
        dep = db.deploy_model("fraud", "v2", shadow=True)
        rng = np.random.default_rng(10)
        for _ in range(4):
            db.predict_labels("fraud", rng.normal(size=(ROWS, 28)))
            if dep.state == "promoted":
                break
        assert dep.state == "promoted"
        assert dep.shadow_diverged == 0
        assert db.lifecycle.snapshot().entry("fraud").serving == "v2"


@pytest.mark.parametrize(
    "split", [{}, {"canary_percent": 50.0}, {"shadow": True}],
    ids=["no-split", "canary-50", "shadow"],
)
def test_every_predict_path_agrees_under_every_split(split):
    """One seeded batch through direct, SQL, thread-mode and cluster-mode
    serving returns identical labels whatever the traffic split, and each
    call is attributable to a published generation."""
    from repro.data import feature_column_names, fraud_schema, fraud_transactions

    features, __, rows = fraud_transactions(48, seed=21)
    model = fraud_fc_256()
    expected = model.predict(features)
    query = (
        f"SELECT PREDICT(fraud, {', '.join(feature_column_names())}) AS p "
        "FROM tx"
    )
    # No auto-promote: the split stays live for every path.
    with Database(deploy_auto_promote=False) as db:
        db.create_table("tx", fraud_schema())
        db.load_rows("tx", rows)
        db.register_model(model, name="fraud")
        if split:
            db.register_model_version("fraud", "v2", model=fraud_fc_256())
            db.deploy_model("fraud", "v2", **split)

        def check(labels):
            np.testing.assert_array_equal(np.asarray(labels), expected)
            __, gen = db.predict_labels_v("fraud", features)
            assert gen in db.lifecycle.generations()

        check(db.predict_labels("fraud", features))
        check(db.execute(query).column("p"))
        for cluster_workers in (0, 2):
            with db.serve(workers=2, cluster_workers=cluster_workers) as server:
                check(server.predict("fraud", features))
        if split:
            (dep,) = db.deployments.active()
            assert dep.total_rows + dep.shadow_compared >= 4 * len(features)


def test_close_drains_serving_tier_and_reports_abandoned():
    db = Database()
    db.register_model(fraud_fc_256(), name="fraud")
    feats = np.random.default_rng(11).normal(size=(8, 28))
    server = db.serve(workers=2)
    got = server.submit("fraud", feats).result(timeout=30.0)
    assert got.shape == (8,)
    # A quiet server drains clean: nothing abandoned, and the count is
    # surfaced all the way out of Database.close().
    abandoned = db.close()
    assert abandoned == 0
    assert server.abandoned_total == 0


def test_server_close_honours_drain_timeout_config():
    with Database(lifecycle_drain_timeout_s=0.5) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        server = db.serve(workers=1)
        feats = np.random.default_rng(12).normal(size=(4, 28))
        server.submit("fraud", feats).result(timeout=30.0)
        assert server.close(drain=True) == 0
