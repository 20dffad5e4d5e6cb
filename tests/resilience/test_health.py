"""The health subsystem: collect(), SHOW HEALTH, and the health gauges."""

import numpy as np
import pytest

from repro import Database
from repro.config import mb
from repro.health import (
    DEGRADED,
    FAILING,
    OK,
    ComponentHealth,
    HealthReport,
    _utilisation_health,
)
from repro.models import fraud_fc_256

TIGHT = dict(
    telemetry_enabled=True,
    memory_threshold_bytes=mb(64),
    dl_memory_limit_bytes=40 * 1024,
)


# -- report mechanics -------------------------------------------------------


def test_overall_status_is_the_worst_component():
    report = HealthReport(
        [
            ComponentHealth("a", OK, ""),
            ComponentHealth("b", DEGRADED, ""),
            ComponentHealth("c", OK, ""),
        ]
    )
    assert report.status == DEGRADED
    assert not report.ok
    assert HealthReport([]).status == OK
    assert report.component("b").status == DEGRADED
    assert report.component("missing") is None


def test_rows_end_with_the_overall_row():
    report = HealthReport([ComponentHealth("a", OK, "fine")])
    rows = report.rows()
    assert rows[0] == ("a", OK, "fine")
    assert rows[-1][0] == "overall"
    assert all(len(row) == len(ComponentHealth._fields) for row in rows)
    assert "overall: ok" in report.render()


def test_utilisation_thresholds():
    assert _utilisation_health("x", 10, 100).status == OK
    assert _utilisation_health("x", 85, 100).status == DEGRADED
    assert _utilisation_health("x", 99, 100).status == FAILING
    assert _utilisation_health("x", 10**9, None).status == OK  # unlimited
    assert _utilisation_health("x", 10**9, 1 << 60).status == OK  # sentinel


# -- collection from a live database ----------------------------------------


def test_fresh_database_is_healthy():
    with Database(telemetry_enabled=True) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        report = db.health()
        assert report.ok
        names = {c.component for c in report.components}
        assert {"budget:db", "budget:dl", "recovery"} <= names


def test_recovery_and_ledger_degrade_health(rng):
    with Database(**TIGHT) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        db.predict("fraud", rng.normal(size=(16, 28)))  # rescued stage
        report = db.health()
        assert report.status == DEGRADED
        assert report.component("recovery").status == DEGRADED
        assert "rescued=1" in report.component("recovery").detail
        ledger = report.component("recovery.ledger")
        assert ledger is not None and ledger.status == DEGRADED


def test_gave_up_recovery_fails_health(rng):
    with Database(resilience_enabled=False, **TIGHT) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        with pytest.raises(Exception):
            db.predict("fraud", rng.normal(size=(16, 28)))
        report = db.health()
        assert report.status == FAILING
        assert report.component("recovery").status == FAILING


def test_armed_faults_degrade_health():
    with Database(telemetry_enabled=True) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        db.faults.arm(site="engine.stage", nth=100)
        report = db.health()
        faults = report.component("faults")
        assert faults is not None and faults.status == DEGRADED


def test_server_queue_and_breakers_appear_when_serving():
    with Database(telemetry_enabled=True) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        with db.serve(workers=1) as server:
            server.predict("fraud", np.zeros((2, 28)))
            names = {c.component for c in db.health().components}
        assert "server.queue:fraud" in names
        assert "breaker:model:fraud" in names


def test_show_health_matches_the_report():
    with Database(telemetry_enabled=True) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        cur = db.execute("SHOW HEALTH")
        assert cur.columns == ComponentHealth._fields
        rows = cur.fetchall()
        assert rows[-1][0] == "overall"
        assert rows[-1][1] == OK
        assert {row[0] for row in rows} >= {"budget:db", "budget:dl", "recovery"}


def test_health_gauges_published_on_collection(rng):
    with Database(**TIGHT) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        db.predict("fraud", rng.normal(size=(8, 28)))
        db.health()
        metrics = {row[0]: row[1] for row in db.execute("SHOW METRICS").rows}
        assert metrics["health_overall_status"] == 1.0  # degraded
        assert metrics["health_components"] >= 3
        assert metrics['health_component_status{component="recovery"}'] == 1.0


def test_show_health_parses_case_insensitively():
    with Database() as db:
        assert db.execute("show health").columns == ComponentHealth._fields
