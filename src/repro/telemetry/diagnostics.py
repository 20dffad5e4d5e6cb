"""Postmortem diagnostics bundles: one JSON artifact per incident.

A bundle is the serialized answer to "what was the system doing when it
broke?".  Its tabular part is the database's system relations — the same
``(columns, rows)`` ``SHOW <target>`` returns, dumped under
``relations`` (health, armed faults, SLO burn state, the workload
store, the stage profile, deployments, server state, plus tables,
models and the plan audit).  The rest is state that is not a relation:
the effective config, a metrics snapshot, breaker states, the recovery
ledger, the fault injector's seed (so a chaos failure replays
deterministically), the last-N flight-recorder events and finished
spans, the collapsed profile stacks, the cluster snapshot, and the
lifecycle catalog's generation and publication history.

``Database.dump_diagnostics(path)`` writes one on request;
the serving worker's unhandled-error path writes one automatically when
``SystemConfig.diagnostics_dir`` is set.  :func:`validate_bundle` is the
schema check CI's diagnostics-smoke job (and the tests) run against the
artifact — an unparseable or incomplete bundle is itself a bug.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

from . import SHOW_TARGETS
from .events import json_safe

#: Bumped when the bundle layout changes incompatibly.  v2 added the
#: workload / slo / profile sections; v3 added the cluster section
#: (null when no process pool is attached); v4 added the lifecycle
#: section; v5 moved every tabular section into ``relations``; v6 added
#: the ``workload_detail`` relation.
BUNDLE_VERSION = 6

#: System relations a bundle leaves out because it already holds their
#: state in richer form — ``metrics`` (the registry snapshot),
#: ``events`` (full event dicts), ``cluster`` (the pool snapshot) — or
#: because they only re-aggregate other state (``stats``, and
#: ``timeline``, which merges the bundled events and traces).
_HELD_ELSEWHERE = frozenset({"metrics", "events", "cluster", "stats", "timeline"})

#: The relations every bundle carries.
BUNDLED_RELATIONS: tuple[str, ...] = tuple(
    name for name in SHOW_TARGETS if name not in _HELD_ELSEWHERE
)

#: Keys every well-formed bundle must carry.
REQUIRED_KEYS: tuple[str, ...] = (
    "bundle_version",
    "created_unix",
    "reason",
    "config",
    "metrics",
    "breakers",
    "recovery_ledger",
    "faults",
    "events",
    "traces",
    "workload",
    "slo",
    "profile",
    "cluster",
    "lifecycle",
    "relations",
)


def build_bundle(
    db, relations, server, cluster, executor,
    reason: str = "requested", error: BaseException | None = None,
    max_events: int = 512, max_spans: int = 512,
) -> dict:
    """Assemble the diagnostics dict (JSON-safe) for one database, given
    its system relations, its hybrid executor and its attached server
    and cluster pool (either may be None)."""
    telemetry = db.telemetry
    breakers = [
        list(row)
        for board in (server and server.breakers, executor.breakers)
        if board is not None
        for row in board.rows()
    ]
    return {
        "bundle_version": BUNDLE_VERSION,
        "created_unix": time.time(),
        "reason": reason,
        "error": (
            {"type": type(error).__name__, "message": str(error)}
            if error is not None
            else None
        ),
        "config": dataclasses.asdict(db.config),
        "metrics": telemetry.registry.snapshot() if telemetry.enabled else {},
        "breakers": breakers,
        "recovery_ledger": [list(row) for row in db.recovery_ledger.rows()],
        "faults": {"seed": db.faults.seed, "armed": db.faults.armed_count},
        "events": telemetry.events.as_dicts(limit=max_events),
        "events_dropped": telemetry.events.dropped,
        "traces": _span_dicts(telemetry.tracer, max_spans),
        "spans_dropped": telemetry.tracer.dropped,
        "workload": {
            "evicted": telemetry.workload.evicted_total,
            "regressions": telemetry.workload.regressions_total(),
        },
        "slo": {
            "models": {
                model: {k: json_safe(v) for k, v in state.items()}
                for model, state in telemetry.slo.snapshot().items()
            },
        },
        "profile": {
            "running": bool(telemetry.profiler.running),
            "samples": telemetry.profiler.sampled,
            "collapsed": telemetry.profiler.collapsed(),
        },
        # Which process hosted what, and who had been crashing.
        "cluster": cluster.snapshot() if cluster is not None else None,
        # Which catalog generation was serving and how it got there.
        "lifecycle": db.deployments.snapshot(),
        "relations": {
            name: {
                "columns": list(row_type._fields),
                "rows": [[json_safe(v) for v in row] for row in rows()],
            }
            for name, (row_type, rows) in relations.items()
            if name not in _HELD_ELSEWHERE
        },
    }


def _span_dicts(tracer, max_spans: int) -> list[dict]:
    return [
        {
            "name": s.name,
            "category": s.category,
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "trace_id": s.trace_id,
            "tid": s.tid,
            "start_s": s.start_s,
            "end_s": s.end_s,
            "args": {k: json_safe(v) for k, v in s.args.items()},
        }
        for s in tracer.finished[-max_spans:]
    ]


def write_bundle(bundle: dict, path: str) -> str:
    """Write one bundle as JSON; returns the path written."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(bundle, f, indent=2, default=str)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return path


def validate_bundle(bundle: dict) -> list[str]:
    """Schema-check one bundle; returns a list of problems (empty = ok)."""
    problems: list[str] = []
    if not isinstance(bundle, dict):
        return [f"bundle must be a JSON object, got {type(bundle).__name__}"]
    for key in REQUIRED_KEYS:
        if key not in bundle:
            problems.append(f"missing required key {key!r}")
    if bundle.get("bundle_version") != BUNDLE_VERSION:
        problems.append(
            f"bundle_version must be {BUNDLE_VERSION}, "
            f"got {bundle.get('bundle_version')!r}"
        )
    if not isinstance(bundle.get("created_unix"), (int, float)):
        problems.append("created_unix must be a number")
    if not isinstance(bundle.get("config"), dict):
        problems.append("config must be an object")
    if not isinstance(bundle.get("metrics"), dict):
        problems.append("metrics must be an object")
    faults = bundle.get("faults")
    if not isinstance(faults, dict) or "seed" not in faults:
        problems.append("faults must be an object carrying the injector seed")
    for key in ("breakers", "recovery_ledger", "events", "traces"):
        if key in bundle and not isinstance(bundle[key], list):
            problems.append(f"{key} must be an array")
    for i, event in enumerate(bundle.get("events", [])):
        if not isinstance(event, dict) or "kind" not in event or "seq" not in event:
            problems.append(f"events[{i}] must be an object with seq and kind")
            break
    relations = bundle.get("relations")
    if relations is not None:
        if not isinstance(relations, dict):
            relations = {}
            problems.append("relations must be an object")
        for name in BUNDLED_RELATIONS:
            if name not in relations:
                problems.append(f"relations must carry the {name!r} relation")
        for name, relation in relations.items():
            if not isinstance(relation, dict) or not (
                isinstance(relation.get("columns"), list)
                and isinstance(relation.get("rows"), list)
            ):
                problems.append(
                    f"relations.{name} must be an object carrying columns "
                    "and rows"
                )
                continue
            for i, row in enumerate(relation["rows"]):
                if not isinstance(row, list) or len(row) != len(
                    relation["columns"]
                ):
                    problems.append(
                        f"relations.{name}.rows[{i}] must be a row matching "
                        f"relations.{name}.columns"
                    )
                    break
    if "workload" in bundle and not isinstance(bundle["workload"], dict):
        problems.append("workload must be an object")
    slo = bundle.get("slo")
    if slo is not None and (
        not isinstance(slo, dict) or not isinstance(slo.get("models"), dict)
    ):
        problems.append("slo must be an object carrying per-model burn state")
    profile = bundle.get("profile")
    if profile is not None:
        if not isinstance(profile, dict) or "collapsed" not in profile:
            problems.append("profile must be an object carrying collapsed stacks")
        else:
            for i, line in enumerate(profile.get("collapsed", [])):
                # Folded-stack format: "frame[;frame...] <count>".
                if (
                    not isinstance(line, str)
                    or " " not in line
                    or not line.rsplit(" ", 1)[1].isdigit()
                ):
                    problems.append(
                        f"profile.collapsed[{i}] must be a "
                        "'frames count' folded-stack line"
                    )
                    break
    if "cluster" in bundle:
        cluster = bundle["cluster"]
        if cluster is not None:
            # Attached-pool bundles must carry the placement map and the
            # per-worker heartbeat/restart rows.
            if not isinstance(cluster, dict) or not isinstance(
                cluster.get("placement"), dict
            ):
                problems.append(
                    "cluster must be null or an object carrying the "
                    "placement map"
                )
            elif not isinstance(cluster.get("workers"), list):
                problems.append("cluster.workers must be an array")
            else:
                for i, worker in enumerate(cluster["workers"]):
                    if not isinstance(worker, dict) or not {
                        "worker_id", "state", "restarts", "heartbeat_age_ms"
                    } <= set(worker):
                        problems.append(
                            f"cluster.workers[{i}] must carry worker_id, "
                            "state, restarts, and heartbeat_age_ms"
                        )
                        break
    if "lifecycle" in bundle:
        lifecycle = bundle["lifecycle"]
        if lifecycle is not None:
            if not isinstance(lifecycle, dict) or not isinstance(
                lifecycle.get("generation"), int
            ):
                problems.append(
                    "lifecycle must be null or an object carrying the "
                    "catalog generation"
                )
            else:
                for i, entry in enumerate(lifecycle.get("history", [])):
                    if not isinstance(entry, list) or len(entry) != 2:
                        problems.append(
                            f"lifecycle.history[{i}] must be a "
                            "[generation, change] pair"
                        )
                        break
    return problems
