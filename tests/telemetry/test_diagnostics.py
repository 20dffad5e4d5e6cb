"""Postmortem diagnostics bundles: build, write, validate, auto-dump."""

from __future__ import annotations

import copy
import json
import os
import tempfile

import numpy as np
import pytest

from repro import Database
from repro.config import SystemConfig
from repro.errors import InjectedFaultError
from repro.faults import FaultPlan, FaultSpec
from repro.models import fraud_fc_256
from repro.telemetry.diagnostics import (
    BUNDLE_VERSION,
    BUNDLED_RELATIONS,
    REQUIRED_KEYS,
    validate_bundle,
    write_bundle,
)


def dumped_bundle(db, **kwargs) -> dict:
    """The bundle ``db.dump_diagnostics`` writes, read back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = db.dump_diagnostics(os.path.join(tmp, "bundle.json"), **kwargs)
        with open(path, encoding="utf-8") as f:
            return json.load(f)


@pytest.fixture
def db(rng):
    database = Database()
    database.register_model(fraud_fc_256(), name="fraud")
    database.execute("CREATE TABLE tx (id INT, amount DOUBLE)")
    database.execute("INSERT INTO tx VALUES (1, 10.5), (2, 99.0)")
    yield database
    database.close()


def test_bundle_has_every_required_key_and_validates(db):
    db.execute("SELECT * FROM tx")
    bundle = dumped_bundle(db)
    for key in REQUIRED_KEYS:
        assert key in bundle
    assert bundle["bundle_version"] == BUNDLE_VERSION
    assert bundle["reason"] == "requested"
    assert bundle["error"] is None
    assert bundle["config"]["telemetry_enabled"] is True
    assert bundle["faults"]["seed"] is not None or "seed" in bundle["faults"]
    assert validate_bundle(bundle) == []


def test_bundle_captures_events_and_error(db, rng):
    with db.serve(workers=1) as server:
        server.predict("fraud", rng.normal(size=(4, 28)))
    bundle = dumped_bundle(db, reason="test", error=ValueError("boom"))
    assert bundle["reason"] == "test"
    assert bundle["error"] == {"type": "ValueError", "message": "boom"}
    kinds = {event["kind"] for event in bundle["events"]}
    assert "request.admitted" in kinds
    assert "request.completed" in kinds
    assert bundle["traces"], "finished spans should be captured"
    assert validate_bundle(bundle) == []


def test_write_bundle_round_trips_as_json(db, tmp_path):
    path = str(tmp_path / "nested" / "bundle.json")
    written = db.dump_diagnostics(path, reason="unit-test")
    assert written == path
    with open(path, encoding="utf-8") as f:
        loaded = json.load(f)
    assert validate_bundle(loaded) == []
    assert loaded["reason"] == "unit-test"


def test_bundle_workload_slo_profile_sections(db):
    db.execute("SELECT * FROM tx WHERE id = 1")
    db.execute("SELECT * FROM tx WHERE id = 2")
    db.set_slo("fraud", latency_ms=250.0)
    bundle = dumped_bundle(db)
    relations = bundle["relations"]
    assert set(relations) == set(BUNDLED_RELATIONS)
    workload = relations["workload"]
    assert workload["columns"][0] == "fingerprint"
    assert len(workload["rows"]) == len(db.telemetry.workload) > 0
    calls = {row[-1]: row[2] for row in workload["rows"]}
    assert 2 in calls.values(), "the two point lookups share one fingerprint"
    assert bundle["workload"] == {"evicted": 0, "regressions": 0}
    assert [r[0] for r in relations["slo"]["rows"]] == ["fraud", "fraud"]
    assert bundle["slo"]["models"]["fraud"]["latency_ms"] == 250.0
    profile = bundle["profile"]
    assert profile["running"] is False
    assert profile["collapsed"] == [] and relations["profile"]["rows"] == []
    # Each relation is exactly what SHOW returns for it.
    for name in ("tables", "models", "faults", "deployments"):
        cursor = db.execute(f"SHOW {name}")
        assert relations[name]["columns"] == list(cursor.columns)
        assert relations[name]["rows"] == [list(row) for row in cursor.rows]
    assert validate_bundle(bundle) == []


def test_bundle_profile_section_carries_collapsed_stacks(db, rng):
    db.start_profiler()
    deadline_samples = 0
    while db.telemetry.profiler.sampled < 3 and deadline_samples < 4000:
        db.predict_labels("fraud", rng.normal(size=(256, 28)))
        deadline_samples += 1
    db.stop_profiler()
    bundle = dumped_bundle(db)
    profile = bundle["profile"]
    assert profile["samples"] >= 3
    assert profile["collapsed"], "sampled frames must serialize"
    assert all(line.rsplit(" ", 1)[1].isdigit() for line in profile["collapsed"])
    assert validate_bundle(bundle) == []


def test_validate_bundle_reports_problems():
    assert validate_bundle([]) != []
    problems = validate_bundle({"bundle_version": 99, "events": [{"oops": 1}]})
    assert any("missing required key" in p for p in problems)
    assert any("bundle_version" in p for p in problems)
    assert any("events[0]" in p for p in problems)
    problems = validate_bundle(
        {
            "relations": {"workload": {"columns": ["a", "b"], "rows": [[1]]}},
            "slo": {"no_models": True},
            "profile": {"collapsed": ["not-a-folded-line"]},
        }
    )
    assert any("relations.workload.rows[0]" in p for p in problems)
    assert any("slo must be" in p for p in problems)
    assert any("profile.collapsed[0]" in p for p in problems)


_DELETE = object()


def _edit(*path, value=_DELETE):
    """A mutation that deletes (or replaces) one entry of a bundle."""

    def apply(bundle):
        *parents, last = path
        node = bundle
        for key in parents:
            node = node[key]
        if value is _DELETE:
            del node[last]
        else:
            node[last] = value
        return bundle

    return apply


# One case per check validate_bundle performs (v4's, each in its v5
# form, plus the v5 relation checks): (id, mutation, expected problem).
MALFORMED = [
    ("not-an-object", lambda bundle: [], "bundle must be a JSON object"),
    ("missing-key", _edit("traces"), "missing required key 'traces'"),
    (
        "version",
        _edit("bundle_version", value=4),
        f"bundle_version must be {BUNDLE_VERSION}",
    ),
    ("created-unix", _edit("created_unix", value="now"), "created_unix must be"),
    ("config", _edit("config", value=[]), "config must be an object"),
    ("metrics", _edit("metrics", value=None), "metrics must be an object"),
    ("faults-seed", _edit("faults", "seed"), "faults must be an object carrying"),
    ("breakers", _edit("breakers", value={}), "breakers must be an array"),
    ("ledger", _edit("recovery_ledger", value={}), "recovery_ledger must be an"),
    ("events", _edit("events", value={}), "events must be an array"),
    ("traces", _edit("traces", value={}), "traces must be an array"),
    ("event", _edit("events", 0, value={"oops": 1}), "events[0] must be"),
    ("relations", _edit("relations", value=[]), "relations must be an object"),
    ("health", _edit("relations", "health", value=[]), "relations.health must"),
    ("workload-missing", _edit("relations", "workload"), "the 'workload' relation"),
    (
        "workload-row",
        _edit("relations", "workload", "rows", value=[[1]]),
        "relations.workload.rows[0] must be a row",
    ),
    ("workload", _edit("workload", value=[]), "workload must be an object"),
    ("slo", _edit("slo", value=[]), "slo must be an object"),
    ("slo-rows", _edit("relations", "slo", "rows", value=None), "relations.slo must"),
    ("profile", _edit("profile", value={}), "profile must be an object"),
    (
        "profile-line",
        _edit("profile", "collapsed", value=["no-count"]),
        "profile.collapsed[0] must be",
    ),
    (
        "cluster",
        _edit("cluster", value={"workers": []}),
        "cluster must be null or an object",
    ),
    (
        "cluster-workers",
        _edit("cluster", value={"placement": {}, "workers": {}}),
        "cluster.workers must be an array",
    ),
    (
        "cluster-worker",
        _edit("cluster", value={"placement": {}, "workers": [{"worker_id": 0}]}),
        "cluster.workers[0] must carry",
    ),
    (
        "lifecycle",
        _edit("lifecycle", "generation", value="3"),
        "lifecycle must be null or an object",
    ),
    (
        "deployments",
        _edit("relations", "deployments", "rows", value={}),
        "relations.deployments must",
    ),
    (
        "deployment-row",
        _edit("relations", "deployments", "rows", value=[["x"]]),
        "relations.deployments.rows[0] must be a row",
    ),
    (
        "history",
        _edit("lifecycle", "history", value=[[1]]),
        "lifecycle.history[0] must be",
    ),
]


@pytest.fixture(scope="module")
def valid_bundle():
    db = Database()
    db.register_model(fraud_fc_256(), name="fraud")
    db.register_model_version("fraud", "v2", model=fraud_fc_256())
    db.execute("DEPLOY MODEL fraud VERSION v2")
    db.predict_labels("fraud", np.random.default_rng(3).normal(size=(4, 28)))
    bundle = dumped_bundle(db)
    db.close()
    assert validate_bundle(bundle) == []
    return bundle


@pytest.mark.parametrize(
    "mutate, problem",
    [case[1:] for case in MALFORMED],
    ids=[case[0] for case in MALFORMED],
)
def test_validate_bundle_reports_each_malformation(valid_bundle, mutate, problem):
    problems = validate_bundle(mutate(copy.deepcopy(valid_bundle)))
    assert any(problem in p for p in problems), problems


def test_close_dumps_bundle_on_request(tmp_path, rng):
    db = Database()
    db.register_model(fraud_fc_256(), name="fraud")
    db.predict_labels("fraud", rng.normal(size=(2, 28)))
    path = str(tmp_path / "close.json")
    db.close(diagnostics_path=path)
    with open(path, encoding="utf-8") as f:
        bundle = json.load(f)
    assert validate_bundle(bundle) == []
    assert bundle["reason"] == "close"


def test_terminal_failure_auto_dumps_into_diagnostics_dir(tmp_path, rng):
    directory = str(tmp_path / "diag")
    config = SystemConfig(diagnostics_dir=directory)
    db = Database(config=config)
    db.register_model(fraud_fc_256(), name="fraud")
    # A non-transient server.batch fault fails the lone request
    # terminally (a batch of one cannot be isolated) — the FIRST
    # client-visible failure auto-dumps exactly one bundle; the second
    # does not (storm protection).
    db.faults.load_plan(
        FaultPlan(
            specs=(
                FaultSpec(site="server.batch", transient=False,
                          one_shot=False, max_fires=2),
            ),
            seed=11,
        )
    )
    with db.serve(workers=1, retry_limit=0) as server:
        for __ in range(2):
            future = server.submit("fraud", rng.normal(size=28))
            with pytest.raises(InjectedFaultError):
                future.result(timeout=10.0)
    names = os.listdir(directory)
    assert len(names) == 1, names
    with open(os.path.join(directory, names[0]), encoding="utf-8") as f:
        bundle = json.load(f)
    assert validate_bundle(bundle) == []
    assert bundle["reason"] == "server.request_failed"
    assert bundle["error"]["type"] == "InjectedFaultError"
    kinds = {event["kind"] for event in bundle["events"]}
    assert "fault.injected" in kinds and "request.failed" in kinds
    db.close()


def test_seeded_fault_in_bundle_is_replayable(tmp_path, rng):
    """The bundle records the injector seed and armed specs — enough to
    re-arm the same plan and reproduce the same fault."""
    feats = rng.normal(size=(8, 28))

    def run(seed):
        db = Database()
        db.register_model(fraud_fc_256(), name="fraud")
        db.faults.load_plan(
            FaultPlan(
                specs=(
                    FaultSpec(site="engine.stage", probability=0.5,
                              one_shot=False, max_fires=2),
                ),
                seed=seed,
            )
        )
        try:
            db.predict_labels("fraud", feats)
        except Exception:
            pass
        bundle = dumped_bundle(db, reason="chaos")
        db.close()
        return bundle

    first = run(seed=1234)
    assert first["faults"]["seed"] == 1234
    again = run(seed=first["faults"]["seed"])
    fired = [e for e in first["events"] if e["kind"] == "fault.injected"]
    fired_again = [e for e in again["events"] if e["kind"] == "fault.injected"]
    assert [e["fields"] for e in fired] == [e["fields"] for e in fired_again]
