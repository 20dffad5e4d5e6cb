"""ModelServer integration: concurrency, determinism, backpressure, SLAs."""

from __future__ import annotations

import sys
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
    real_predict = db._models.labels

    def slow_predict(name, feats, **kwargs):
        time.sleep(0.05)
        return real_predict(name, feats, **kwargs)

    db._models.labels = slow_predict
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
        db._models.labels = real_predict


def test_sla_shedding_visible_in_stats_and_metrics(db, features):
    real_predict = db._models.labels

    def slow_predict(name, feats, **kwargs):
        time.sleep(0.05)
        return real_predict(name, feats, **kwargs)

    db._models.labels = slow_predict
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
        db._models.labels = real_predict
    snapshot = db.telemetry.registry.snapshot()
    shed = [v for k, v in snapshot.items() if "server_requests_total" in k and "shed" in k]
    assert shed and shed[0] >= 1


def test_queued_requests_expire_while_waiting(db, features):
    real_predict = db._models.labels

    def slow_predict(name, feats, **kwargs):
        time.sleep(0.15)
        return real_predict(name, feats, **kwargs)

    db._models.labels = slow_predict
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
        db._models.labels = real_predict


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
    real_predict = db._models.labels

    def slow_predict(name, feats, **kwargs):
        time.sleep(0.1)
        return real_predict(name, feats, **kwargs)

    db._models.labels = slow_predict
    try:
        server = db.serve(workers=1, max_queue_delay_ms=0.0)
        futures = [server.submit("fraud", features[i]) for i in range(6)]
        server.close(drain=False)
        outcomes = {type(f.exception(timeout=30.0)).__name__ for f in futures}
        # Everything resolved: executed, or failed with ServerClosedError.
        assert outcomes <= {"NoneType", "ServerClosedError"}
    finally:
        db._models.labels = real_predict


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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("delay_ms", [0.0, 2.0])
def test_seeded_schedule_loses_no_wakeup(db, workers, delay_ms):
    """Two models, random gaps and deadlines: every request settles, the
    answers match the sequential path, and the outcome counts add up."""
    from repro.models import fraud_fc_256

    db.register_model(fraud_fc_256(seed=3), name="fraud_b")
    rng = np.random.default_rng(100 * workers + int(delay_ms))
    n = 80
    feats = rng.normal(size=(n, 28))
    models = rng.choice(["fraud", "fraud_b"], size=n)
    gaps_s = rng.uniform(0.0, 0.003, size=n)
    deadlines = np.where(rng.random(n) < 0.3, rng.uniform(1.0, 40.0, size=n), 0.0)
    expected = {
        name: db.predict_labels(name, feats) for name in ("fraud", "fraud_b")
    }
    with db.serve(workers=workers, max_queue_delay_ms=delay_ms) as server:
        futures = []
        for i in range(n):
            time.sleep(gaps_s[i])
            futures.append(
                server.submit(models[i], feats[i], deadline_ms=float(deadlines[i]))
            )
        for i, future in enumerate(futures):
            error = future.exception(timeout=5.0)  # TimeoutError = lost wake-up
            if error is None:
                labels = future.result(timeout=0)
                assert labels[0] == expected[models[i]][i]
            else:
                assert isinstance(error, DeadlineExceededError)
                assert deadlines[i] > 0
        assert server.drain(timeout=5.0)
        rows = dict(server.stats_rows())
    submitted = rows["server.requests.submitted"]
    assert submitted + rows["server.requests.shed"] == n
    assert submitted == (
        rows["server.requests.completed"]
        + rows["server.requests.expired"]
        + rows["server.requests.failed"]
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_lone_request_does_not_wait_for_the_worker_poll(db, features, workers):
    """An idle worker is woken by the submit itself, not by its 50 ms poll."""
    with db.serve(workers=workers, max_queue_delay_ms=0.0) as server:
        server.submit("fraud", features[0]).result(timeout=10.0)  # warm-up
        latencies = []
        for i in range(20):
            time.sleep(0.01)  # let every worker go back to waiting
            start = time.perf_counter()
            server.submit("fraud", features[i]).result(timeout=10.0)
            latencies.append(time.perf_counter() - start)
    assert float(np.median(latencies)) < 0.025


def test_stress_more_workers_than_cores_keeps_counts_exact(db, rng):
    """Four client threads and four workers with a tiny switch interval:
    a lost wake-up hangs a future, a lost count update breaks the sums."""
    clients, per_client = 4, 40
    feats = rng.normal(size=(clients * per_client, 28))
    expected = db.predict_labels("fraud", feats)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with db.serve(workers=4, max_batch_size=8, max_queue_delay_ms=1.0) as server:
            outcomes: dict[int, object] = {}

            def client(cid: int):
                local = np.random.default_rng(cid)
                for i in range(cid * per_client, (cid + 1) * per_client):
                    deadline = 0.0 if local.random() < 0.5 else 5.0
                    future = server.submit("fraud", feats[i], deadline_ms=deadline)
                    error = future.exception(timeout=10.0)
                    outcomes[i] = error if error else int(future.result()[0])

            threads = [
                threading.Thread(target=client, args=(c,)) for c in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            assert server.drain(timeout=10.0)
            rows = dict(server.stats_rows())
            assert server._models["fraud"].batcher._deadlined == 0
    finally:
        sys.setswitchinterval(interval)
    assert len(outcomes) == clients * per_client
    for i, outcome in outcomes.items():
        if isinstance(outcome, BaseException):
            assert isinstance(outcome, DeadlineExceededError)
        else:
            assert outcome == expected[i]
    assert rows["server.requests.submitted"] + rows["server.requests.shed"] == len(feats)
    assert rows["server.requests.submitted"] == (
        rows["server.requests.completed"]
        + rows["server.requests.expired"]
        + rows["server.requests.failed"]
    )


def test_arrival_during_a_lease_is_taken_by_an_idle_worker(db, features):
    """A request queued while one worker holds the batcher's lease wakes
    the idle worker when the lease ends, instead of waiting for the busy
    worker's batch or the idle worker's 50 ms poll."""
    real_predict = db._models.labels

    def slow_predict(name, feats, **kwargs):
        time.sleep(0.04)
        return real_predict(name, feats, **kwargs)

    db._models.labels = slow_predict
    try:
        with db.serve(workers=2, max_batch_size=1, max_queue_delay_ms=0.0) as server:
            server.submit("fraud", features[0]).result(timeout=10.0)  # warm-up
            batcher = server._models["fraud"].batcher
            real_collect = batcher.collect
            armed = threading.Event()
            arrivals = []

            def collect_with_arrival(*args, **kwargs):
                batch = real_collect(*args, **kwargs)
                if batch is not None and armed.is_set():
                    armed.clear()
                    # Submitted while this worker still holds the lease.
                    arrivals.append(server.submit("fraud", features[1]))
                return batch

            batcher.collect = collect_with_arrival
            for __ in range(7):
                time.sleep(0.02)  # both workers back to waiting
                armed.set()
                server.submit("fraud", features[0]).result(timeout=10.0)
                arrivals[-1].result(timeout=10.0)
            waits = [future.queue_seconds for future in arrivals]
    finally:
        db._models.labels = real_predict
    # Without the hand-off the arrival waits for the first batch (40 ms)
    # or the idle worker's poll, whichever ends first.
    assert float(np.median(waits)) < 0.015
