"""ClusterPool behavior short of crash handling (see test_cluster_e2e)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterPool
from repro.dlruntime.layers import Model
from repro.errors import CatalogError, PlanError
from repro.models import fraud_fc_256

from .conftest import shm_listing


class _SlowUnpickleModel(Model):
    """A model whose worker-side load outlives the heartbeat timeout."""

    LOAD_DELAY_S = 1.2

    def __setstate__(self, state):
        time.sleep(self.LOAD_DELAY_S)
        self.__dict__.update(state)


class _FailingUnpickleModel(Model):
    """A model whose worker-side load always blows up."""

    def __setstate__(self, state):
        raise RuntimeError("weights corrupted beyond repair")


def _variant(cls, name: str) -> Model:
    base = fraud_fc_256()
    return cls(name, base.layers, base.input_shape)


@pytest.fixture
def pool(cluster_db):
    with ClusterPool(cluster_db) as p:
        yield p


def test_predict_matches_thread_path(pool, cluster_db, features):
    expected = cluster_db.predict_labels("fraud", features)
    np.testing.assert_array_equal(pool.predict("fraud", features), expected)


def test_predict_leaves_no_segments_behind(cluster_db, features, shm_before):
    with ClusterPool(cluster_db) as pool:
        for __ in range(8):
            pool.predict("fraud", features)
    leaked = {f for f in shm_listing() - shm_before if f.startswith("rc")}
    assert not leaked


def test_engine_errors_cross_the_boundary_typed(pool):
    # The worker executed fine; the engine rejected the batch.  The
    # client sees the same typed error the thread path raises.
    with pytest.raises(PlanError):
        pool.predict("fraud", np.empty((0, 28)))


def test_unknown_model_raises_catalog_error(pool):
    with pytest.raises(CatalogError):
        pool.predict("nope", np.ones((4, 28)))


def test_oversized_batch_counts_shm_fallback(cluster_db, features):
    import dataclasses

    config = dataclasses.replace(cluster_db.config, cluster_shm_max_bytes=64)
    cluster_db._config = config  # tiny cap: every batch falls back
    try:
        with ClusterPool(cluster_db) as pool:
            expected = cluster_db.predict_labels("fraud", features)
            np.testing.assert_array_equal(
                pool.predict("fraud", features), expected
            )
            assert pool.snapshot()["counters"]["shm_fallbacks"] >= 1
    finally:
        cluster_db._config = dataclasses.replace(
            config, cluster_shm_max_bytes=8 * 1024 * 1024
        )


def test_placement_is_replicated_and_visible(pool):
    replicas = pool.ensure_model("fraud")
    assert len(replicas) == pool.replication == 2
    assert pool.placement_map() == {"fraud": list(replicas)}


def test_show_cluster_surfaces_pool_state(pool, cluster_db, features):
    pool.predict("fraud", features)
    rows = dict(cluster_db.execute("SHOW CLUSTER").fetchall())
    assert rows["cluster.workers"] == 2
    assert rows["cluster.requests.completed"] >= 1
    assert rows["cluster.placement.fraud"]
    assert "cluster.worker.0.pid" in rows
    # Deterministic: the pool fixture's __enter__ waited for readiness.
    assert rows["cluster.worker.0.state"] == "ready"


def test_pool_counts_with_telemetry_off(cluster_config, features):
    # Counters are system state: telemetry off stops exporting them,
    # not counting them, so the snapshot and SHOW CLUSTER stay live.
    from dataclasses import replace

    from repro import Database

    config = replace(cluster_config, telemetry_enabled=False, cluster_workers=1)
    with Database(config=config) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        with ClusterPool(db) as pool:
            for __ in range(3):
                pool.predict("fraud", features)
            counters = pool.snapshot()["counters"]
            rows = dict(db.execute("SHOW CLUSTER").fetchall())
        assert db.execute("SHOW METRICS").rows == []
    assert counters["completed"] == 3
    assert counters["spawns"] >= 1
    assert rows["cluster.requests.completed"] == 3


def test_show_cluster_empty_without_pool():
    from repro import Database

    with Database() as db:
        assert db.execute("SHOW CLUSTER").fetchall() == []


def test_show_server_gains_worker_rows_only_in_cluster_mode(
    cluster_db, features
):
    server = cluster_db.serve(cluster_workers=2)
    try:
        server.submit("fraud", features).result(timeout=30)
        rows = dict(cluster_db.execute("SHOW SERVER").fetchall())
        # serve() returned only once every worker was ready.
        assert rows["server.worker.0.state"] == "ready"
        assert rows["server.worker.1.state"] == "ready"
        assert "fraud" in rows["server.worker.0.models"] or (
            "fraud" in rows["server.worker.1.models"]
        )
    finally:
        server.close()
    # Thread mode (explicitly overriding the config knob): the same
    # statement must not mention worker processes.
    server = cluster_db.serve(cluster_workers=0)
    try:
        thread_rows = cluster_db.execute("SHOW SERVER").fetchall()
        assert not any(".worker." in name for name, __ in thread_rows)
    finally:
        server.close()


def test_serve_cluster_closes_pool_with_server(cluster_db):
    server = cluster_db.serve(cluster_workers=2)
    pool = server.cluster
    assert cluster_db._cluster is pool
    server.close()
    assert pool.closed
    assert cluster_db._cluster is None


def test_worker_processes_share_the_core_budget(cluster_db):
    with ClusterPool(cluster_db) as pool:
        budget = pool._worker_config.num_cores
        assert budget == max(1, cluster_db.config.num_cores // pool.workers)
        assert pool._worker_config.cluster_workers == 0  # no recursion
        assert pool._worker_config.telemetry_enabled is False


def test_wait_ready_returns_once_every_worker_is_ready(cluster_db):
    from repro.errors import ClusterUnavailableError

    pool = ClusterPool(cluster_db)  # no `with`: nothing has waited yet
    try:
        pool.wait_ready(timeout=30)
        assert {h.state for h in pool._handles.values()} == {"ready"}
    finally:
        pool.close()
    with pytest.raises(ClusterUnavailableError):
        pool.wait_ready(timeout=30)  # a closed pool never becomes ready


def test_worker_forked_while_tracker_lock_held_still_serves(
    cluster_db, features
):
    # A client thread creating a shared-memory segment holds the resource
    # tracker's lock; a worker forked (or respawned) at that moment must
    # not inherit it locked and hang on its first attach.
    from multiprocessing import resource_tracker

    expected = cluster_db.predict_labels("fraud", features)
    held, release = threading.Event(), threading.Event()

    def hold_tracker_lock():
        with resource_tracker._resource_tracker._lock:
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold_tracker_lock)
    holder.start()
    assert held.wait(5)
    try:
        pool = ClusterPool(cluster_db)
    finally:
        release.set()
        holder.join(5)
    with pool:
        np.testing.assert_array_equal(pool.predict("fraud", features), expected)


def test_predict_after_close_raises(cluster_db, features):
    pool = ClusterPool(cluster_db)
    pool.close()
    from repro.errors import ClusterError

    with pytest.raises(ClusterError):
        pool.predict("fraud", features)


def test_slow_model_load_is_not_mistaken_for_a_wedge(cluster_db, features):
    # The load sleeps 2x the fixture's 600ms heartbeat timeout.  With
    # heartbeats on a dedicated worker thread the monitor must NOT kill
    # the worker as wedged mid-load (which would replay the same slow
    # load forever).
    cluster_db.register_model(
        _variant(_SlowUnpickleModel, "slowload"), name="slowload"
    )
    expected = cluster_db.predict_labels("slowload", features)
    with ClusterPool(cluster_db) as pool:
        np.testing.assert_array_equal(pool.predict("slowload", features), expected)
        snapshot = pool.snapshot()
        assert snapshot["counters"]["crashes"] == 0
        assert all(worker["restarts"] == 0 for worker in snapshot["workers"])


def test_load_failure_surfaces_real_error_and_retires_model(
    cluster_db, features
):
    from repro.errors import WorkerLoadError

    cluster_db.register_model(
        _variant(_FailingUnpickleModel, "badload"), name="badload"
    )
    with ClusterPool(cluster_db) as pool:
        with pytest.raises(WorkerLoadError) as excinfo:
            pool.predict("badload", features)
        # The caller sees the real worker-side error, not a timeout.
        assert "weights corrupted beyond repair" in str(excinfo.value)
        # The worker survived: no crash/respawn loop.  Every worker was
        # ready before the first request (__enter__ waited for it).
        snapshot = pool.snapshot()
        assert snapshot["counters"]["crashes"] == 0
        assert all(worker["state"] == "ready" for worker in snapshot["workers"])
        assert "badload" in snapshot["load_failures"]
        # Retired pool-wide: the next request fails fast, well under the
        # 20s request timeout.
        start = time.monotonic()
        with pytest.raises(WorkerLoadError):
            pool.predict("badload", features)
        assert time.monotonic() - start < 2.0
        # Healthy models on the same workers still serve.
        np.testing.assert_array_equal(
            pool.predict("fraud", features),
            cluster_db.predict_labels("fraud", features),
        )
        rows = dict(cluster_db.execute("SHOW CLUSTER").fetchall())
        assert "corrupted" in rows["cluster.load_failure.badload"]


def test_two_pools_in_one_process_use_distinct_segments(
    cluster_config, features
):
    # Two Databases each serving with a cluster in the same parent used
    # to mint colliding rc<pid>-<req> segment names (FileExistsError).
    from repro import Database

    dbs, pools = [], []
    try:
        for __ in range(2):
            db = Database(config=cluster_config)
            db.register_model(fraud_fc_256(), name="fraud")
            dbs.append(db)
            pools.append(ClusterPool(db, workers=1))
        assert pools[0]._seg_prefix != pools[1]._seg_prefix
        expected = dbs[0].predict_labels("fraud", features)
        errors: list[BaseException] = []

        def hammer(pool: ClusterPool) -> None:
            try:
                for __ in range(10):
                    np.testing.assert_array_equal(
                        pool.predict("fraud", features), expected
                    )
            except BaseException as exc:  # noqa: BLE001 - recorded
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(pool,)) for pool in pools
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, f"cross-pool interference: {errors!r}"
    finally:
        for pool in pools:
            pool.close()
        for db in dbs:
            db.close()


def test_timed_out_request_stays_counted_until_worker_answers(rng):
    # A caller that gives up on a busy worker must not decrement the
    # worker's inflight count while the worker is still chewing on the
    # request — routing and SHOW CLUSTER would under-report queued work.
    from repro import Database
    from repro.config import SystemConfig
    from repro.errors import ClusterUnavailableError

    config = SystemConfig(
        telemetry_enabled=True,
        cluster_workers=1,
        cluster_heartbeat_interval_ms=20.0,
        cluster_heartbeat_timeout_ms=600.0,
        cluster_request_timeout_ms=400.0,
    )
    features = rng.normal(size=(4, 28))
    with Database(config=config) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        db.register_model(
            _variant(_SlowUnpickleModel, "slowload"), name="slowload"
        )
        with ClusterPool(db, workers=1) as pool:
            pool.predict("fraud", features)  # fraud loaded and acked
            handle = pool._handles[0]
            # Occupy the single worker's serve loop with a 1.2s load,
            # then race a predict against the 400ms request timeout.
            pool.ensure_model("slowload")
            with pytest.raises(ClusterUnavailableError):
                pool.predict("fraud", features)
            # Abandoned, not forgotten: still counted on the worker.
            assert handle.inflight == 1
            assert len(pool._pending) == 1
            deadline = time.monotonic() + 10
            while handle.inflight and time.monotonic() < deadline:
                time.sleep(0.02)
            # The worker's late answer retired the slot.
            assert handle.inflight == 0
            assert not pool._pending
            assert handle.restarts == 0  # busy, never declared wedged
            pool.predict("fraud", features)  # and the pool still serves
