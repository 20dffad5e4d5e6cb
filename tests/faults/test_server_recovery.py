"""ModelServer fault handling: bounded retry, recovery, batch isolation."""

import time

import numpy as np
import pytest

from repro import Database
from repro.errors import InjectedFaultError
from repro.models import fraud_fc_256


@pytest.fixture
def db():
    database = Database()
    database.register_model(fraud_fc_256(), name="fraud")
    yield database
    database.close()


@pytest.fixture
def features(rng):
    return rng.normal(size=(16, 28))


def test_transient_batch_fault_is_retried_to_success(db, features):
    expected = db.predict_labels("fraud", features[:4])
    db.faults.arm(site="server.batch", nth=1)
    with db.serve(workers=1) as server:
        got = server.submit("fraud", features[:4]).result(timeout=30.0)
        np.testing.assert_array_equal(got, expected)
        rows = dict(server.stats_rows())
        assert rows["server.retries"] >= 1
    assert db.faults.retry_total == 1
    assert db.faults.recovery_total == 1


def test_transient_engine_fault_recovered_through_server_retry(db, features):
    """A fault below the server (in the engine stage loop) is retried too."""
    expected = db.predict_labels("fraud", features[:4])
    db.faults.arm(site="engine.stage", nth=1)
    with db.serve(workers=1) as server:
        got = server.submit("fraud", features[:4]).result(timeout=30.0)
        np.testing.assert_array_equal(got, expected)
    assert db.faults.retry_total >= 1
    assert db.faults.recovery_total >= 1


def test_non_transient_fault_fails_fast_without_retry(db, features):
    db.faults.arm(site="server.batch", transient=False)
    with db.serve(workers=1) as server:
        future = server.submit("fraud", features[0])
        with pytest.raises(InjectedFaultError):
            future.result(timeout=30.0)
        assert db.faults.retry_total == 0
        # The server survives the poisoned request and keeps serving.
        ok = server.submit("fraud", features[1]).result(timeout=30.0)
        assert ok.shape == (1,)
        rows = dict(server.stats_rows())
        assert rows["server.requests.failed"] == 1


def test_persistent_fault_poisons_one_request_not_the_batch(db, features):
    """Retry budget exhausted on a coalesced batch: innocent riders are
    isolated and resolve; only the request whose run trips the fault
    fails.  Regardless of how the batcher coalesced the submissions,
    exactly one future fails."""
    expected = db.predict_labels("fraud", features)
    real_predict = db._models.labels

    def slow_predict(name, feats, **kwargs):
        time.sleep(0.02)  # hold the lone worker so later submits coalesce
        return real_predict(name, feats, **kwargs)

    db._models.labels = slow_predict
    try:
        with db.serve(workers=1, max_batch_size=8, max_queue_delay_ms=0.0) as server:
            retry_limit = server.retry_limit
            plug = server.submit("fraud", features[0])
            time.sleep(0.005)  # let the worker pick the plug up alone
            # One more firing than the retry budget: the spec stays hot
            # through every batch-level retry, then hits exactly one
            # request in the isolation pass.
            db.faults.arm(
                site="server.batch",
                one_shot=False,
                max_fires=retry_limit + 2,
                transient=True,
            )
            futures = [server.submit("fraud", features[i]) for i in (1, 2)]
            outcomes = []
            for i, future in zip((1, 2), futures):
                try:
                    outcomes.append(("ok", i, future.result(timeout=30.0)))
                except InjectedFaultError:
                    outcomes.append(("fail", i, None))
            np.testing.assert_array_equal(
                plug.result(timeout=30.0), expected[0:1]
            )
            failed = [o for o in outcomes if o[0] == "fail"]
            assert len(failed) == 1, outcomes
            for status, i, got in outcomes:
                if status == "ok":
                    np.testing.assert_array_equal(got, expected[i : i + 1])
            assert db.faults.retry_total >= retry_limit
            # The server keeps serving after the poisoned batch.
            ok = server.submit("fraud", features[3]).result(timeout=30.0)
            np.testing.assert_array_equal(ok, expected[3:4])
    finally:
        db._models.labels = real_predict


def test_retry_knobs_surface_in_stats_and_serve_overrides(db, features):
    with db.serve(workers=1, retry_limit=5, retry_backoff_ms=0.5) as server:
        rows = dict(server.stats_rows())
        assert rows["server.retry_limit"] == 5
        assert rows["server.retry_backoff_ms"] == 0.5
        assert rows["server.retries"] == 0


def test_show_faults_reports_server_activity(db, features):
    db.faults.arm(site="server.batch", nth=1)
    with db.serve(workers=1) as server:
        server.submit("fraud", features[:2]).result(timeout=30.0)
    cur = db.execute("SHOW FAULTS")
    rows = {row[0]: row for row in cur.fetchall()}
    site_row = rows["server.batch"]
    assert site_row[6] >= 1  # fires
    assert site_row[7] >= 1  # retries
    assert site_row[8] >= 1  # recoveries
