"""ModelServer integration: concurrency, determinism, backpressure, SLAs."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import Database
from repro.errors import (
    CatalogError,
    DeadlineExceededError,
    ReproError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.server import RequestState


def test_submit_resolves_single_row(db, features):
    with db.serve(workers=2) as server:
        future = server.submit("fraud", features[0])
        labels = future.result(timeout=10.0)
        assert labels.shape == (1,)
        assert future.state is RequestState.DONE
        assert future.queue_seconds is not None
        assert future.execute_seconds is not None


def test_sync_predict_convenience(db, features):
    with db.serve() as server:
        labels = server.predict("fraud", features[:4])
        assert labels.shape == (4,)


def test_unknown_model_rejected_at_submit(db, features):
    with db.serve() as server:
        with pytest.raises(CatalogError):
            server.submit("nope", features[0])


def test_stress_concurrent_clients_deterministic(db, rng):
    """The acceptance stress test: N client threads x M requests each.

    Every future resolves, and batched predictions are identical to the
    sequential per-request answers (row-independent FC inference).
    """
    clients, per_client = 8, 25
    feats = rng.normal(size=(clients * per_client, 28))
    expected = db.predict_labels("fraud", feats)

    with db.serve(workers=3, max_batch_size=32, max_queue_delay_ms=2.0) as server:
        results = np.full(len(feats), -1, dtype=np.int64)
        errors: list[BaseException] = []

        def client(cid: int):
            try:
                futures = [
                    (i, server.submit("fraud", feats[i]))
                    for i in range(cid * per_client, (cid + 1) * per_client)
                ]
                for i, future in futures:
                    results[i] = int(future.result(timeout=30.0)[0])
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors
        assert np.array_equal(results, expected)

        rows = dict(server.stats_rows())
        assert rows["server.requests.completed"] == clients * per_client
        # Under 8 concurrent clients the batcher must actually coalesce.
        assert rows["server.model.fraud.largest_batch_rows"] > 1


def test_backpressure_raises_server_overloaded(db, features):
    real_predict = db._predict

    def slow_predict(name, feats, **kwargs):
        time.sleep(0.05)
        return real_predict(name, feats, **kwargs)

    db._predict = slow_predict
    try:
        with db.serve(workers=1, queue_capacity=2, max_queue_delay_ms=0.0) as server:
            futures, rejected = [], 0
            for i in range(12):
                try:
                    futures.append(server.submit("fraud", features[i]))
                except ServerOverloadedError as exc:
                    rejected += 1
                    assert exc.queue_depth >= exc.capacity == 2
            assert rejected > 0
            for future in futures:
                future.result(timeout=30.0)
            rows = dict(server.stats_rows())
            assert rows["server.requests.rejected"] == rejected
    finally:
        db._predict = real_predict


def test_sla_shedding_visible_in_stats_and_metrics(db, features):
    real_predict = db._predict

    def slow_predict(name, feats, **kwargs):
        time.sleep(0.05)
        return real_predict(name, feats, **kwargs)

    db._predict = slow_predict
    try:
        with db.serve(workers=1, max_queue_delay_ms=0.0) as server:
            # Warm the estimator past its confidence gate (~50ms/batch).
            for i in range(4):
                server.submit("fraud", features[i]).result(timeout=30.0)
            # 1ms of slack against a learned ~50ms execution: shed.
            future = server.submit("fraud", features[0], deadline_ms=1.0)
            assert future.shed()
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=0)
            rows = dict(server.stats_rows())
            assert rows["server.requests.shed"] >= 1
    finally:
        db._predict = real_predict
    snapshot = db.telemetry.registry.snapshot()
    shed = [v for k, v in snapshot.items() if "server_requests_total" in k and "shed" in k]
    assert shed and shed[0] >= 1


def test_queued_requests_expire_while_waiting(db, features):
    real_predict = db._predict

    def slow_predict(name, feats, **kwargs):
        time.sleep(0.15)
        return real_predict(name, feats, **kwargs)

    db._predict = slow_predict
    try:
        with db.serve(workers=1, max_queue_delay_ms=0.0) as server:
            first = server.submit("fraud", features[0])
            time.sleep(0.03)  # let the worker take the first request
            # Expires long before the 150ms in-flight batch finishes; the
            # estimator is not confident yet, so it queues rather than sheds.
            doomed = server.submit("fraud", features[1], deadline_ms=20.0)
            first.result(timeout=30.0)
            assert isinstance(
                doomed.exception(timeout=30.0), DeadlineExceededError
            )
            server.drain()
            rows = dict(server.stats_rows())
            assert rows["server.model.fraud.deadline_drops"] >= 1
            assert rows["server.requests.expired"] >= 1
    finally:
        db._predict = real_predict


def test_show_server_sql(db, features):
    assert db.execute("SHOW SERVER").rows == []
    with db.serve(workers=1) as server:
        server.predict("fraud", features[:2])
        rows = dict(db.execute("SHOW SERVER").rows)
        assert rows["server.workers"] == 1
        assert rows["server.requests.completed"] >= 1
        assert "server.model.fraud.queue_depth" in rows
        stats = dict(db.execute("SHOW STATS").rows)
        assert "server.workers" in stats  # server section present while attached
    assert db.execute("SHOW SERVER").rows == []  # detached after close
    assert "server.workers" not in dict(db.execute("SHOW STATS").rows)


def test_server_metrics_exported(db, features):
    with db.serve() as server:
        server.predict("fraud", features[:4])
    names = {row[0] for row in db.execute("SHOW METRICS").rows}
    assert any(n.startswith("server_requests_total") for n in names)
    assert any(n.startswith("server_batch_rows") for n in names)
    assert any(n.startswith("server_queue_depth") for n in names)


def test_close_semantics(db, features):
    server = db.serve()
    server.predict("fraud", features[:1])
    server.close()
    assert server.closed
    server.close()  # idempotent
    with pytest.raises(ServerClosedError):
        server.submit("fraud", features[0])
    # A new server can attach after the old one detaches.
    with db.serve() as second:
        assert second.predict("fraud", features[:1]).shape == (1,)


def test_only_one_server_per_database(db):
    with db.serve():
        with pytest.raises(ReproError, match="already attached"):
            db.serve()


def test_close_without_drain_fails_queued_requests(db, features):
    real_predict = db._predict

    def slow_predict(name, feats, **kwargs):
        time.sleep(0.1)
        return real_predict(name, feats, **kwargs)

    db._predict = slow_predict
    try:
        server = db.serve(workers=1, max_queue_delay_ms=0.0)
        futures = [server.submit("fraud", features[i]) for i in range(6)]
        server.close(drain=False)
        outcomes = {type(f.exception(timeout=30.0)).__name__ for f in futures}
        # Everything resolved: executed, or failed with ServerClosedError.
        assert outcomes <= {"NoneType", "ServerClosedError"}
    finally:
        db._predict = real_predict


def test_serving_concurrent_with_sql_queries(db, rng):
    """PREDICT traffic shares the read lock; DDL serializes against it."""
    feats = rng.normal(size=(40, 28))
    stop = threading.Event()
    errors: list[BaseException] = []

    def sql_client():
        try:
            i = 0
            while not stop.is_set():
                db.execute(f"CREATE TABLE scratch_{i} (id INT)")
                db.execute(f"INSERT INTO scratch_{i} VALUES (1)")
                assert len(db.execute(f"SELECT id FROM scratch_{i}").rows) == 1
                db.execute(f"DROP TABLE scratch_{i}")
                i += 1
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    with db.serve(workers=2) as server:
        thread = threading.Thread(target=sql_client)
        thread.start()
        try:
            futures = [server.submit("fraud", feats[i]) for i in range(len(feats))]
            for future in futures:
                future.result(timeout=30.0)
        finally:
            stop.set()
            thread.join(timeout=30.0)
    assert not errors


def test_show_stats_sections_gate_on_telemetry():
    """Optional sections contribute zero rows instead of raising."""
    with Database(telemetry_enabled=False) as db:
        stats = dict(db.execute("SHOW STATS").rows)
        assert "bufferpool.hits" in stats  # core sections always present
        assert not any(k.startswith(("telemetry.", "audit.")) for k in stats)
        assert not any(k.startswith("server.") for k in stats)
    with Database() as db:
        stats = dict(db.execute("SHOW STATS").rows)
        assert "telemetry.spans_recorded" in stats
        assert "audit.records" in stats


def test_server_works_with_telemetry_disabled(rng):
    """Null metrics must not break the serving path or SHOW SERVER."""
    from repro.models import fraud_fc_256

    with Database(telemetry_enabled=False) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        feats = rng.normal(size=(6, 28))
        expected = db.predict_labels("fraud", feats)
        with db.serve(workers=1) as server:
            got = np.stack(
                [server.submit("fraud", feats[i]).result(30.0)[0] for i in range(6)]
            )
            rows = dict(db.execute("SHOW SERVER").rows)
            # Outcome counters read 0 through the null registry, but the
            # batcher's own stats still report real traffic.
            assert rows["server.model.fraud.batches"] >= 1
        assert np.array_equal(got, expected)


def test_multi_row_requests_scatter_correctly(db, rng):
    feats = rng.normal(size=(12, 28))
    expected = db.predict_labels("fraud", feats)
    with db.serve(max_queue_delay_ms=5.0) as server:
        a = server.submit("fraud", feats[:5])
        b = server.submit("fraud", feats[5:7])
        c = server.submit("fraud", feats[7:])
        got = np.concatenate(
            [a.result(timeout=30.0), b.result(timeout=30.0), c.result(timeout=30.0)]
        )
    assert np.array_equal(got, expected)
