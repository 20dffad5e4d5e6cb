"""SLO policies, multi-window burn rates, and the health integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.errors import TelemetryError
from repro.health import DEGRADED, FAILING, OK
from repro.models import fraud_fc_256
from repro.telemetry.slo import SLO_COLUMNS, NullSloTracker, SloPolicy, SloTracker


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def tracker(clock, **kwargs):
    kwargs.setdefault("fast_window_s", 60.0)
    kwargs.setdefault("slow_window_s", 3600.0)
    kwargs.setdefault("min_samples", 4)
    return SloTracker(clock=clock, **kwargs)


def test_policy_validation():
    with pytest.raises(TelemetryError):
        SloPolicy("m", latency_ms=-1)
    with pytest.raises(TelemetryError):
        SloPolicy("m", error_budget=0.0)
    with pytest.raises(TelemetryError):
        SloPolicy("m", error_budget=1.5)
    with pytest.raises(TelemetryError):
        SloTracker(fast_window_s=120, slow_window_s=60)


def test_burn_rate_zero_until_min_samples(clock):
    t = tracker(clock, min_samples=4)
    t.set_policy("m", latency_ms=10, error_budget=0.5)
    for __ in range(3):
        t.observe("m", ok=False, latency_ms=0.0)
    rows = t.rows()
    assert all(row[SLO_COLUMNS.index("burn_rate")] == 0.0 for row in rows)
    t.observe("m", ok=False, latency_ms=0.0)
    fast = t.rows()[0]
    assert fast[SLO_COLUMNS.index("burn_rate")] == pytest.approx(2.0)
    assert fast[SLO_COLUMNS.index("status")] == "burning"


def test_latency_objective_counts_slow_requests_as_bad(clock):
    t = tracker(clock, min_samples=4)
    t.set_policy("m", latency_ms=100, error_budget=0.25)
    for __ in range(4):
        t.observe("m", ok=True, latency_ms=50.0)  # fast: good
    snap = t.snapshot()["m"]
    assert snap["fast_burn"] == 0.0
    for __ in range(4):
        t.observe("m", ok=True, latency_ms=500.0)  # slow: bad despite ok
    snap = t.snapshot()["m"]
    assert snap["fast_burn"] == pytest.approx((4 / 8) / 0.25)
    assert snap["burning_fast"]


def test_fast_window_recovers_while_slow_still_burns(clock):
    t = tracker(clock, min_samples=4, fast_window_s=60, slow_window_s=3600)
    t.set_policy("m", latency_ms=0, error_budget=0.1)
    for __ in range(8):
        t.observe("m", ok=False, latency_ms=0.0)
    snap = t.snapshot()["m"]
    assert snap["burning_fast"] and snap["burning_slow"]
    # 2 minutes later the failures age out of the fast window only.
    clock.advance(120)
    for __ in range(8):
        t.observe("m", ok=True, latency_ms=0.0)
    snap = t.snapshot()["m"]
    assert not snap["burning_fast"]
    assert snap["burning_slow"], "hour window still holds the bad samples"


def test_burn_transitions_emit_events(clock):
    events = []

    class Recorder:
        def emit(self, kind, **fields):
            events.append((kind, fields))

    t = tracker(clock, min_samples=2, recorder=Recorder())
    t.set_policy("m", error_budget=0.5)
    t.observe("m", ok=False, latency_ms=0)
    t.observe("m", ok=False, latency_ms=0)  # burn = 4.0 -> start
    starts = [(k, f) for k, f in events if k == "slo.burn_start"]
    assert {f["window"] for __, f in starts} == {"fast", "slow"}
    assert not any(k == "slo.burn_stop" for k, __ in events)
    clock.advance(120)  # bad samples leave the fast window
    for __ in range(4):
        t.observe("m", ok=True, latency_ms=0)
    kinds = [k for k, __ in events]
    assert kinds.count("slo.burn_start") == 2  # no re-fire while burning
    assert "slo.burn_stop" in kinds


def test_unconfigured_model_untracked_unless_default_set(clock):
    t = tracker(clock)
    t.observe("ghost", ok=False, latency_ms=0)
    assert t.rows() == []
    t2 = tracker(clock, default_latency_ms=100.0)
    t2.observe("ghost", ok=True, latency_ms=5)
    assert len(t2.rows()) == 2  # auto-registered, fast + slow rows


def test_null_tracker_is_inert():
    t = NullSloTracker()
    t.set_policy("m", latency_ms=1)
    t.observe("m", ok=False, latency_ms=0)
    assert t.rows() == [] and t.snapshot() == {}


# -- end-to-end through Database / server / health -----------------------


@pytest.fixture
def db():
    database = Database(slo_min_samples=4, breaker_enabled=False)
    database.register_model(fraud_fc_256(), name="fraud")
    yield database
    database.close()


def test_impossible_latency_slo_burns_and_degrades_health(db):
    rng = np.random.default_rng(3)
    # An objective no real request can meet: every completion is "bad".
    db.set_slo("fraud", latency_ms=0.001, error_budget=0.01)
    with db.serve(workers=1, max_queue_delay_ms=0.5) as server:
        for __ in range(8):
            server.predict("fraud", rng.normal(size=(4, 28)))
    rows = db.execute("SHOW SLO").fetchall()
    assert len(rows) == 2
    fast = dict(zip(SLO_COLUMNS, rows[0]))
    assert fast["model"] == "fraud"
    assert fast["samples"] >= 4
    assert fast["burn_rate"] > 1.0
    assert fast["status"] == "burning"
    report = db.health()
    slo_component = report.component("slo:fraud")
    assert slo_component is not None
    assert slo_component.status == FAILING  # fast AND slow burning
    assert report.status == FAILING
    kinds = {e.kind for e in db.telemetry.events.events()}
    assert "slo.burn_start" in kinds


def test_generous_slo_stays_ok(db):
    rng = np.random.default_rng(3)
    db.set_slo("fraud", latency_ms=60_000.0, error_budget=0.5)
    with db.serve(workers=1, max_queue_delay_ms=0.5) as server:
        for __ in range(8):
            server.predict("fraud", rng.normal(size=(4, 28)))
    rows = db.execute("SHOW SLO").fetchall()
    assert all(row[SLO_COLUMNS.index("status")] == "ok" for row in rows)
    component = db.health().component("slo:fraud")
    assert component is not None and component.status == OK


def test_set_slo_noop_with_telemetry_disabled():
    db = Database(telemetry_enabled=False)
    db.set_slo("fraud", latency_ms=10)  # must not raise
    assert db.execute("SHOW SLO").fetchall() == []
    db.close()


def test_burn_rate_gauge_published(db):
    rng = np.random.default_rng(3)
    db.set_slo("fraud", latency_ms=0.001)
    with db.serve(workers=1, max_queue_delay_ms=0.5) as server:
        for __ in range(8):
            server.predict("fraud", rng.normal(size=(4, 28)))
    gauge = db.telemetry.registry.get(
        "slo_burn_rate", model="fraud", window="fast"
    )
    assert gauge is not None and gauge.value > 1.0
