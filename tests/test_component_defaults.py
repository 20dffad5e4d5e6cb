"""Golden values for the defaults each component owns.

Server, breaker, ledger, telemetry-ring, SLO, profiler, cluster and
deployment defaults are written once, in the component that uses them;
this pins the effective values a plain ``Database()`` ends up with, so
moving a default between modules cannot silently change it.
"""

import multiprocessing

from repro import Database
from repro.models import fraud_fc_256


def test_serving_defaults():
    with Database() as db:
        with db.serve() as server:
            assert server.workers == 2
            assert server.max_batch_size == 64
            assert server.max_queue_delay_s == 0.002
            assert server.queue_capacity == 256
            assert server.default_deadline_ms == 0.0
            assert server.retry_limit == 2
            assert server.retry_backoff_s == 0.001
            breaker = server.breakers.get("m")
            assert breaker.failure_threshold == 0.5
            assert breaker.probe_probability == 1.0
        assert db.recovery_ledger.threshold == 1


def test_telemetry_defaults():
    with Database() as db:
        telemetry = db.telemetry
        assert telemetry.events.max_events == 4096
        assert telemetry.audit._records.maxlen == 1024
        workload = telemetry.workload
        assert workload.max_fingerprints == 512
        assert workload.regression_factor == 3.0
        assert workload.regression_warmup == 8
        assert workload.regression_min_seconds == 0.005
        slo = telemetry.slo
        assert slo.fast_window_s == 60.0
        assert slo.slow_window_s == 3600.0
        assert slo.burn_threshold == 1.0
        assert slo.default_latency_ms == 0.0
        assert slo.default_error_budget == 0.01
        assert telemetry.profiler.max_frames == 256


def test_cluster_defaults():
    from repro.cluster import ClusterPool

    # Three workers, so the default replication is not clamped to the
    # worker count.
    with Database() as db, ClusterPool(db, workers=3) as pool:
        assert pool.replication == 2
        assert pool._placement.vnodes == 32
        platform_has_fork = "fork" in multiprocessing.get_all_start_methods()
        assert pool.start_method == ("fork" if platform_has_fork else "spawn")


def _shadow_verdict(diverged: int) -> str:
    with Database() as db:
        db.register_model(fraud_fc_256(), name="fraud")
        db.register_model_version("fraud", "v2", model=fraud_fc_256())
        dep = db.deploy_model("fraud", "v2", shadow=True)
        db.deployments.observe_shadow(
            "fraud", dep.version, compared=1000, diverged=diverged, ok=True
        )
        return dep.state


def test_shadow_divergence_threshold_is_two_percent():
    assert _shadow_verdict(20) == "promoted"  # 2.0%: within the bound
    assert _shadow_verdict(21) == "rolled_back"  # 2.1%: over it
