"""Unit tests for the deterministic fault injector (`repro.faults`)."""

import pytest

from repro.errors import ConfigError, CorruptPageError, InjectedFaultError
from repro.faults import (
    BIT_FLIP,
    ERROR,
    KNOWN_SITES,
    TORN_WRITE,
    FaultInjector,
    FaultPlan,
    FaultRow,
    FaultSpec,
    corrupt,
    is_transient,
)
from repro.telemetry.registry import MetricsRegistry


def fire_pattern(injector: FaultInjector, site: str, hits: int) -> list[bool]:
    """True per hit that fired (error raised or spec returned)."""
    pattern = []
    for __ in range(hits):
        try:
            pattern.append(injector.fire(site) is not None)
        except InjectedFaultError:
            pattern.append(True)
    return pattern


def test_unarmed_injector_is_inert():
    inj = FaultInjector(seed=1)
    assert inj.fire("disk.read_page") is None
    assert not inj.active
    assert inj.armed_count == 0
    assert inj.injected_total == 0


def test_nth_trigger_fires_exactly_once_on_nth_hit():
    inj = FaultInjector(seed=1)
    inj.arm(site="disk.read_page", nth=3)
    assert fire_pattern(inj, "disk.read_page", 6) == [
        False, False, True, False, False, False,
    ]
    assert inj.injected_total == 1


def test_always_trigger_with_one_shot_fires_first_hit_only():
    inj = FaultInjector(seed=1)
    inj.arm(site="disk.sync")
    assert fire_pattern(inj, "disk.sync", 4) == [True, False, False, False]


def test_max_fires_caps_non_one_shot_spec():
    inj = FaultInjector(seed=1)
    inj.arm(site="server.batch", one_shot=False, max_fires=3)
    assert fire_pattern(inj, "server.batch", 6) == [
        True, True, True, False, False, False,
    ]
    assert inj.injected_total == 3


def test_probability_trigger_is_deterministic_per_seed():
    def run(seed: int) -> list[bool]:
        inj = FaultInjector(seed=seed)
        inj.arm(site="disk.write_page", probability=0.5, one_shot=False)
        return fire_pattern(inj, "disk.write_page", 64)

    first = run(1234)
    assert first == run(1234), "same seed must replay the same fire pattern"
    assert True in first and False in first, "p=0.5 over 64 hits should mix"
    assert first != run(4321), "different seeds should diverge"


def test_bit_flip_position_is_deterministic_per_seed():
    def flipped(seed: int) -> bytes:
        inj = FaultInjector(seed=seed)
        spec = inj.arm(site="disk.write_page", kind=BIT_FLIP)
        fired = inj.fire("disk.write_page")
        assert fired is spec
        return corrupt(b"\x00" * 256, fired)

    assert flipped(7) == flipped(7)
    assert flipped(7) != flipped(8)


def test_error_kind_raises_typed_transient_fault():
    inj = FaultInjector(seed=1)
    inj.arm(site="engine.stage", message="boom")
    with pytest.raises(InjectedFaultError) as excinfo:
        inj.fire("engine.stage", model="m", stage=0)
    err = excinfo.value
    assert err.site == "engine.stage"
    assert is_transient(err)
    assert "boom" in str(err)
    assert "model" in str(err)


def test_non_transient_error_is_not_retry_worthy():
    inj = FaultInjector(seed=1)
    inj.arm(site="disk.read_page", transient=False)
    with pytest.raises(InjectedFaultError) as excinfo:
        inj.fire("disk.read_page")
    assert not is_transient(excinfo.value)


def test_is_transient_rejects_ordinary_and_corruption_errors():
    assert not is_transient(ValueError("x"))
    assert not is_transient(CorruptPageError("damaged", page_id=0, path="p"))


def test_corrupt_torn_write_keeps_first_half():
    spec = FaultSpec(site="disk.write_page", kind=TORN_WRITE)
    data = bytes(range(100))
    assert corrupt(data, spec) == data[:50]
    assert corrupt(b"", spec) == b""


def test_corrupt_bit_flip_changes_exactly_one_bit():
    inj = FaultInjector(seed=3)
    spec = inj.arm(site="disk.write_page", kind=BIT_FLIP)
    data = b"\x00" * 64
    out = corrupt(data, spec)
    assert len(out) == len(data)
    diff = [a ^ b for a, b in zip(data, out)]
    changed = [d for d in diff if d]
    assert len(changed) == 1
    assert bin(changed[0]).count("1") == 1


def test_corruption_kind_returns_spec_instead_of_raising():
    inj = FaultInjector(seed=1)
    armed = inj.arm(site="disk.write_page", kind=TORN_WRITE)
    assert inj.fire("disk.write_page") is armed
    assert inj.fire("disk.write_page") is None  # one-shot


def test_plan_seed_overrides_injector_seed():
    template = FaultSpec(
        site="disk.read_page", probability=0.5, one_shot=False
    )

    def run(injector_seed: int, plan_seed: int | None) -> list[bool]:
        inj = FaultInjector(seed=injector_seed)
        inj.load_plan(FaultPlan([template], seed=plan_seed))
        return fire_pattern(inj, "disk.read_page", 64)

    assert run(1, 99) == run(2, 99), "plan seed wins over injector seed"
    assert run(1, None) == run(1, None)


def test_arming_a_template_does_not_mutate_it():
    template = FaultSpec(site="disk.sync")
    inj = FaultInjector(seed=1)
    live = inj.arm(template)
    with pytest.raises(InjectedFaultError):
        inj.fire("disk.sync")
    assert live.fires == 1
    assert template.fires == 0 and template.hits == 0


def test_disarm_single_site_and_all():
    inj = FaultInjector(seed=1)
    inj.arm(site="disk.read_page")
    inj.arm(site="disk.sync")
    assert inj.armed_count == 2
    inj.disarm("disk.read_page")
    assert inj.armed_count == 1
    assert inj.fire("disk.read_page") is None
    inj.disarm()
    assert inj.armed_count == 0
    assert inj.fire("disk.sync") is None


def test_retry_and_recovery_accounting():
    registry = MetricsRegistry()
    inj = FaultInjector(seed=1, metrics=registry)
    inj.arm(site="server.batch")
    with pytest.raises(InjectedFaultError):
        inj.fire("server.batch")
    inj.record_retry("server.batch")
    inj.record_retry("server.batch")
    inj.record_recovery("server.batch")
    assert inj.retry_total == 2
    assert inj.recovery_total == 1
    assert registry.counter(
        "fault_injected_total", "", site="server.batch"
    ).value == 1
    assert registry.counter("retry_total", "", site="server.batch").value == 2
    assert registry.counter("recovery_total", "", site="server.batch").value == 1


def test_rows_cover_every_known_site():
    inj = FaultInjector(seed=1)
    inj.arm(site="disk.read_page", nth=2)
    rows = inj.rows()
    assert all(len(row) == len(FaultRow._fields) for row in rows)
    listed = {row[0] for row in rows}
    assert listed >= set(KNOWN_SITES)
    armed = [row for row in rows if row[0] == "disk.read_page"]
    assert armed[0][1] == ERROR and armed[0][4] is True
    assert "nth=2" in armed[0][2]


def test_invalid_spec_fields_rejected():
    with pytest.raises(ConfigError):
        FaultSpec(site="disk.read_page", kind="melt")
    with pytest.raises(ConfigError):
        FaultSpec(site="disk.read_page", nth=0)
    with pytest.raises(ConfigError):
        FaultSpec(site="disk.read_page", probability=1.5)
    with pytest.raises(ConfigError):
        FaultSpec(site="disk.read_page", max_fires=0)
