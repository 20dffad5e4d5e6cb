"""SLO policies, multi-window burn rates, and the health integration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.errors import TelemetryError
from repro.health import DEGRADED, FAILING, OK
from repro.models import fraud_fc_256
from repro.telemetry.slo import SloPolicy, SloRow, SloTracker


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
    assert all(row[SloRow._fields.index("burn_rate")] == 0.0 for row in rows)
    t.observe("m", ok=False, latency_ms=0.0)
    fast = t.rows()[0]
    assert fast[SloRow._fields.index("burn_rate")] == pytest.approx(2.0)
    assert fast[SloRow._fields.index("status")] == "burning"


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
    t = SloTracker(enabled=False)
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
    fast = dict(zip(SloRow._fields, rows[0]))
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
    assert all(row[SloRow._fields.index("status")] == "ok" for row in rows)
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


# -- incremental windows against a brute-force recount -------------------

_STEPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 4.0, 11.0, 35.0]),  # clock gap (s)
        st.lists(
            st.tuples(st.booleans(), st.sampled_from([1.0, 5.0, 20.0])),
            min_size=1,
            max_size=12,
        ),
        st.booleans(),  # one observe_many call, or one observe per sample
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(steps=_STEPS)
def test_incremental_windows_match_a_recount(steps):
    """Gaps cross both windows (10 s / 30 s) and bursts overflow
    ``max_samples``; after every step ``rows()`` equals a recount and the
    burn events equal a per-sample replay of the recount."""
    clock = FakeClock()
    events = []

    class Recorder:
        def emit(self, kind, **fields):
            events.append((kind, fields["window"], fields["samples"], fields["bad"]))

    limit_ms, budget, max_samples, min_samples = 10.0, 0.25, 16, 3
    t = SloTracker(
        fast_window_s=10.0, slow_window_s=30.0, min_samples=min_samples,
        max_samples=max_samples, recorder=Recorder(), clock=clock,
    )
    t.set_policy("m", latency_ms=limit_ms, error_budget=budget)
    windows = (("fast", 10.0), ("slow", 30.0))
    samples: list[tuple[float, bool]] = []
    burning = {"fast": False, "slow": False}
    expected_events = []

    def recount(now, span_s):
        inside = [bad for ts, bad in samples[-max_samples:] if ts >= now - span_s]
        total, bad = len(inside), sum(inside)
        burn = 0.0 if total < min_samples else (bad / total) / budget
        return total, bad, burn

    for gap, batch, many in steps:
        clock.advance(gap)
        oks = {ok for ok, __ in batch}
        if many and len(oks) == 1:
            t.observe_many("m", [latency for __, latency in batch], ok=oks.pop())
        else:
            for ok, latency in batch:
                t.observe("m", ok=ok, latency_ms=latency)
        for ok, latency in batch:
            samples.append((clock.now, (not ok) or latency > limit_ms))
            for name, span_s in windows:
                total, bad, burn = recount(clock.now, span_s)
                if (burn >= 1.0) != burning[name]:
                    burning[name] = burn >= 1.0
                    kind = "slo.burn_start" if burning[name] else "slo.burn_stop"
                    expected_events.append((kind, name, total, bad))
        expected_rows = []
        for name, span_s in windows:
            total, bad, burn = recount(clock.now, span_s)
            expected_rows.append((
                "m", "latency<=10ms", 0.75, f"{name}:{span_s:g}s", total, bad,
                round(burn, 4), "burning" if burn >= 1.0 else "ok",
            ))
        assert t.rows() == expected_rows
        assert events == expected_events


def test_observe_many_equals_one_observe_per_sample(clock):
    """Same rows, gauges and events as one observe per request."""
    from repro.telemetry.registry import MetricsRegistry

    outputs = []
    for batched in (True, False):
        registry = MetricsRegistry()
        events = []

        class Recorder:
            def emit(self, kind, **fields):
                events.append((kind, fields))

        t = tracker(clock, min_samples=2, metrics=registry, recorder=Recorder())
        t.set_policy("m", latency_ms=10.0, error_budget=0.5)
        for ok, latencies in (
            (True, [1.0, 50.0, 60.0, 2.0]),
            (True, [3.0] * 6),
            (True, [70.0, 1.0]),
            (False, [0.0, 0.0]),
        ):
            if batched:
                t.observe_many("m", latencies, ok=ok)
            else:
                for latency in latencies:
                    t.observe("m", ok=ok, latency_ms=latency)
        outputs.append((t.rows(), events, registry.snapshot()))
    assert outputs[0] == outputs[1]
    assert any(kind == "slo.burn_stop" for kind, __ in outputs[0][1])
