"""Circuit breakers: the state machine, the board, and the serving
front-end acceptance flow (trip → fast-fail → probe → close), all
deterministic under a fixed seed."""

import numpy as np
import pytest

from repro import Database
from repro.errors import CircuitOpenError, InjectedFaultError
from repro.models import fraud_fc_256
from repro.resilience import BreakerBoard, CircuitBreaker
from repro.resilience.breaker import BREAKER_COLUMNS, CLOSED, HALF_OPEN, OPEN


def breaker(**overrides) -> CircuitBreaker:
    kwargs = dict(
        window=4, failure_threshold=0.5, min_samples=2, cooldown_requests=2
    )
    kwargs.update(overrides)
    return CircuitBreaker("test", **kwargs)


# -- the state machine ------------------------------------------------------


def test_parameter_validation():
    with pytest.raises(ValueError):
        CircuitBreaker("b", window=0)
    with pytest.raises(ValueError):
        CircuitBreaker("b", failure_threshold=0.0)
    with pytest.raises(ValueError):
        CircuitBreaker("b", min_samples=9, window=8)
    with pytest.raises(ValueError):
        CircuitBreaker("b", cooldown_requests=0)
    with pytest.raises(ValueError):
        CircuitBreaker("b", probe_probability=1.5)


def test_closed_breaker_allows_everything():
    b = breaker()
    for __ in range(10):
        assert b.allow() == (True, CLOSED)
    assert b.state == CLOSED


def test_opens_at_failure_threshold_after_min_samples():
    b = breaker(min_samples=2)
    b.record_failure()
    assert b.state == CLOSED  # one sample is below min_samples
    b.record_failure()
    assert b.state == OPEN
    assert b.opened_total == 1


def test_successes_hold_the_rate_under_threshold():
    b = breaker(window=4, failure_threshold=0.5, min_samples=2)
    for __ in range(3):
        b.record_success()
    b.record_failure()  # 1 failure / 4 outcomes = 0.25 < 0.5
    assert b.state == CLOSED


def test_window_slides_old_outcomes_out():
    b = breaker(window=4, min_samples=4)
    b.record_failure()
    b.record_failure()
    for __ in range(4):  # pushes both failures out of the window
        b.record_success()
    assert b.failure_rate == 0.0
    assert b.state == CLOSED


def test_open_rejects_until_cooldown_then_probes():
    b = breaker(cooldown_requests=2)
    b.record_failure()
    b.record_failure()
    assert b.state == OPEN
    assert b.allow() == (False, OPEN)
    assert b.allow() == (False, OPEN)
    assert b.rejected_total == 2
    # The request past the cooldown becomes the half-open probe.
    assert b.allow() == (True, HALF_OPEN)
    # Only one probe in flight: the next arrival is rejected.
    assert b.allow() == (False, HALF_OPEN)


def test_probe_success_closes_and_clears_the_window():
    b = breaker(cooldown_requests=1)
    b.record_failure()
    b.record_failure()
    b.allow()
    assert b.allow() == (True, HALF_OPEN)
    b.record_success()
    assert b.state == CLOSED
    assert b.failure_rate == 0.0


def test_record_success_n_equals_n_single_records():
    for trip in (False, True):
        batched, single = breaker(cooldown_requests=1), breaker(cooldown_requests=1)
        for b in (batched, single):
            b.record_failure()
            b.record_success()
            if trip:  # 2 of 3 failed: open, then probe half-open
                b.record_failure()
                b.allow()
                assert b.allow() == (True, HALF_OPEN)
        batched.record_success(3)
        for __ in range(3):
            single.record_success()
        assert batched.as_row() == single.as_row()
        assert list(batched._outcomes) == list(single._outcomes)


def test_probe_failure_reopens():
    b = breaker(cooldown_requests=1)
    b.record_failure()
    b.record_failure()
    b.allow()
    assert b.allow() == (True, HALF_OPEN)
    b.record_failure()
    assert b.state == OPEN
    assert b.opened_total == 2


def test_abandon_probe_frees_the_slot():
    b = breaker(cooldown_requests=1)
    b.record_failure()
    b.record_failure()
    b.allow()
    assert b.allow() == (True, HALF_OPEN)
    assert b.allow() == (False, HALF_OPEN)
    b.abandon_probe()  # the granted probe was shed downstream
    assert b.allow() == (True, HALF_OPEN)


def test_seeded_probe_draws_replay():
    """Two breakers with the same name and seed make identical probe
    decisions, regardless of machine or process."""

    def decisions(seed):
        b = CircuitBreaker(
            "replay",
            min_samples=1,
            failure_threshold=1.0,
            cooldown_requests=1,
            probe_probability=0.5,
            seed=seed,
        )
        out = []
        for __ in range(30):
            b.record_failure()
            b.allow()  # cooldown rejection
            granted, state = b.allow()  # probe candidate
            assert state == HALF_OPEN
            out.append(granted)
            if not granted:
                b.abandon_probe()
                b.record_failure()  # re-open via a fresh failure
            else:
                b.record_failure()  # failed probe re-opens directly
        return out

    assert decisions(7) == decisions(7)
    assert True in decisions(7) and False in decisions(7)
    assert decisions(7) != decisions(8)


def test_as_row_matches_columns():
    b = breaker()
    b.record_failure()
    row = b.as_row()
    assert len(row) == len(BREAKER_COLUMNS)
    assert row[0] == "test"
    assert row[1] == CLOSED


# -- the board --------------------------------------------------------------


def test_board_creates_and_reuses_breakers():
    board = BreakerBoard()
    first = board.get("engine:udf-centric")
    assert board.get("engine:udf-centric") is first
    assert board.peek("missing") is None
    assert len(board) == 1


def test_board_iterates_sorted_and_reports_worst_state():
    board = BreakerBoard(min_samples=1, failure_threshold=1.0)
    board.get("b")
    board.get("a")
    assert [b.name for b in board] == ["a", "b"]
    assert board.worst_state() == CLOSED
    board.get("b").record_failure()
    assert board.worst_state() == OPEN
    assert [row[0] for row in board.rows()] == ["a", "b"]


def test_board_from_config_applies_knobs():
    from repro.config import SystemConfig

    config = SystemConfig(breaker_window=6, breaker_min_samples=3)
    board = BreakerBoard.from_config(config)
    b = board.get("x")
    assert b.window == 6
    assert b.min_samples == 3


# -- serving front-end acceptance -------------------------------------------


def run_breaker_scenario() -> tuple[list[str], dict]:
    """The ISSUE acceptance flow: an always-failing model trips the
    breaker, later requests fast-fail without touching a worker, and the
    half-open probe closes the breaker once the fault plan is exhausted.

    Returns the per-request outcome sequence and the final stats rows.
    """
    db = Database(
        telemetry_enabled=True,
        breaker_min_samples=2,
        breaker_window=4,
        breaker_cooldown_requests=2,
    )
    try:
        db.register_model(fraud_fc_256(), name="fraud")
        features = np.random.default_rng(7).normal(size=(4, 28))
        db.faults.arm(
            site="server.batch", transient=False, one_shot=False, max_fires=4
        )
        outcomes = []
        with db.serve(workers=1, max_queue_delay_ms=0.0) as server:
            for __ in range(12):
                try:
                    future = server.submit("fraud", features)
                except CircuitOpenError:
                    outcomes.append("fast-fail")
                    continue
                try:
                    future.result(timeout=30.0)
                    outcomes.append("ok")
                except InjectedFaultError:
                    outcomes.append("fault")
            stats = dict(server.stats_rows())
        return outcomes, stats
    finally:
        db.close()


def test_breaker_trips_fast_fails_and_recovers_via_probe():
    outcomes, stats = run_breaker_scenario()
    # Two failures fill min_samples and open the breaker; two rejections
    # ride out the request-count cooldown; each probe replays the fault
    # until the plan's four firings are spent, then the probe succeeds
    # and the closed breaker serves normally.
    assert outcomes == [
        "fault",
        "fault",
        "fast-fail",
        "fast-fail",
        "fault",  # half-open probe, fault still armed
        "fast-fail",
        "fast-fail",
        "fault",  # second probe, exhausts the fault plan
        "fast-fail",
        "fast-fail",
        "ok",  # third probe closes the breaker
        "ok",
    ]
    assert stats["server.requests.broken"] == 6
    assert stats["server.breaker.model:fraud.state"] == "closed"
    assert stats["server.breaker.model:fraud.opened_total"] >= 2


def test_breaker_scenario_is_deterministic():
    assert run_breaker_scenario()[0] == run_breaker_scenario()[0]


def test_fast_fail_skips_worker_execution():
    """While the breaker is open, rejected requests never reach a worker:
    the fault site records no extra hits."""
    db = Database(
        breaker_min_samples=2, breaker_window=4, breaker_cooldown_requests=2
    )
    try:
        db.register_model(fraud_fc_256(), name="fraud")
        features = np.zeros((2, 28))
        db.faults.arm(
            site="server.batch", transient=False, one_shot=False, max_fires=2
        )
        with db.serve(workers=1, max_queue_delay_ms=0.0) as server:
            for __ in range(2):
                with pytest.raises(InjectedFaultError):
                    server.submit("fraud", features).result(timeout=30.0)
            fires_when_opened = db.faults.injected_total
            for __ in range(2):
                with pytest.raises(CircuitOpenError):
                    server.submit("fraud", features)
            assert db.faults.injected_total == fires_when_opened
    finally:
        db.close()
