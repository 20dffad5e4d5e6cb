"""The health subsystem: one aggregated view of runtime resilience state.

A serving database accumulates health signals in many places: circuit
breakers (per served model in the front-end, per engine in the hybrid
executor), rescue counts in the recovery ledger, memory-budget
utilisation, server queue depths, and armed fault injections.  This
module folds them into one report with a three-level status per
component::

    ok        component operating normally
    degraded  working, but only via fallbacks (open/half-open breakers
              probing, rescues recorded, budgets or queues near full)
    failing   actively rejecting or erroring (open breakers, gave-up
              recoveries, exhausted budgets)

The report surfaces in three places: ``Database.health()``, the ``SHOW
HEALTH`` SQL statement, and ``health_*`` gauges in the metrics registry
(refreshed on every collection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .resilience.breaker import CLOSED, HALF_OPEN, OPEN

OK = "ok"
DEGRADED = "degraded"
FAILING = "failing"

_SEVERITY = {OK: 0, DEGRADED: 1, FAILING: 2}

#: Budget / queue utilisation levels that degrade or fail a component.
DEGRADED_UTILISATION = 0.80
FAILING_UTILISATION = 0.95


class ComponentHealth(NamedTuple):
    """One component's contribution: a ``health`` (``SHOW HEALTH``) row."""

    component: str
    status: str
    detail: str


@dataclass
class HealthReport:
    """An aggregated point-in-time health snapshot."""

    components: list[ComponentHealth]

    @property
    def status(self) -> str:
        """The worst component status (``ok`` for an empty report)."""
        worst = OK
        for component in self.components:
            if _SEVERITY[component.status] > _SEVERITY[worst]:
                worst = component.status
        return worst

    @property
    def ok(self) -> bool:
        return self.status == OK

    def component(self, name: str) -> ComponentHealth | None:
        for entry in self.components:
            if entry.component == name:
                return entry
        return None

    def rows(self) -> list[ComponentHealth]:
        """``SHOW HEALTH`` rows: components first, overall last."""
        overall = f"{len(self.components)} components"
        return [*self.components, ComponentHealth("overall", self.status, overall)]

    def render(self) -> str:
        width = max((len(c.component) for c in self.components), default=7)
        lines = [f"overall: {self.status}"]
        for component in self.components:
            lines.append(
                f"  {component.component:<{width}}  {component.status:<8}  "
                f"{component.detail}"
            )
        return "\n".join(lines)


def _breaker_health(breaker) -> ComponentHealth:
    status = {CLOSED: OK, HALF_OPEN: DEGRADED, OPEN: FAILING}[breaker.state]
    return ComponentHealth(
        component=f"breaker:{breaker.name}",
        status=status,
        detail=(
            f"state={breaker.state} failure_rate={breaker.failure_rate:.2f} "
            f"opened_total={breaker.opened_total}"
        ),
    )


#: MemoryBudget's "no limit" sentinel is 1 << 62; anything that large is
#: effectively unlimited and always reports ok.
_UNLIMITED = 1 << 50


def _utilisation_health(
    component: str, used: int, limit: int | None, unit: str = "B"
) -> ComponentHealth:
    if not limit or limit >= _UNLIMITED:
        return ComponentHealth(component, OK, f"used={used:,}{unit} (unlimited)")
    utilisation = used / limit
    status = OK
    if utilisation >= FAILING_UTILISATION:
        status = FAILING
    elif utilisation >= DEGRADED_UTILISATION:
        status = DEGRADED
    return ComponentHealth(
        component,
        status,
        f"used={used:,}{unit} limit={limit:,}{unit} ({utilisation:.0%})",
    )


def collect(db, executor, server, cluster) -> HealthReport:
    """Build the health report for one :class:`~repro.session.Database`,
    its hybrid executor and its attached server and cluster pool (either
    may be None).

    Collection is read-only and lock-free: every signal source is either
    immutable or internally synchronized, so this is safe to call from a
    monitoring thread while the serving front-end is under load.
    """
    components: list[ComponentHealth] = []
    ledger = db.recovery_ledger

    # Engine-level circuit breakers (hybrid executor).
    if executor.breakers is not None:
        for breaker in executor.breakers:
            components.append(_breaker_health(breaker))

    # Serving front-end: per-model breakers and queue depths.
    if server is not None:
        if server.breakers is not None:
            for breaker in server.breakers:
                components.append(_breaker_health(breaker))
        for model, depth in sorted(server.queue_depths().items()):
            components.append(
                _utilisation_health(
                    f"server.queue:{model}", depth, server.queue_capacity, unit=""
                )
            )

    # Cluster tier: one component per worker process.  DEAD slots are
    # failing (the monitor is between crash and respawn); a respawned or
    # heartbeat-stale worker is degraded; a fresh READY worker is ok.
    if cluster is not None:
        for row in cluster.snapshot()["workers"]:
            stale = row["heartbeat_age_ms"] > (
                db.config.cluster_heartbeat_timeout_ms / 2
            )
            if row["state"] != "ready":
                status = FAILING if row["state"] == "dead" else DEGRADED
            elif stale or row["restarts"]:
                status = DEGRADED
            else:
                status = OK
            components.append(
                ComponentHealth(
                    f"cluster.worker:{row['worker_id']}",
                    status,
                    f"state={row['state']} pid={row['pid']} "
                    f"restarts={row['restarts']} inflight={row['inflight']} "
                    f"heartbeat_age_ms={row['heartbeat_age_ms']:g}",
                )
            )

    # In-flight deployments: a live traffic split (canary/shadow) is a
    # deliberate degraded state — the fleet is mid-transition — and the
    # deployment's per-version breaker folds in like any other breaker.
    deployments = db.deployments
    for dep in deployments.active():
        components.append(
            ComponentHealth(
                f"deploy:{dep.model}",
                DEGRADED,
                f"version={dep.version} state={dep.state} "
                f"requests={dep.requests} failures={dep.failures} "
                f"diverged={dep.shadow_diverged}/{dep.shadow_compared}",
            )
        )
        breaker = deployments.breaker_for(dep.model, dep.version)
        if breaker is not None:
            components.append(_breaker_health(breaker))

    # Memory budgets: the DB-side and DL-runtime-side whole-tensor pools.
    components.append(
        _utilisation_health(
            "budget:db", executor.db_budget.used, executor.db_budget.limit
        )
    )
    components.append(
        _utilisation_health(
            "budget:dl", executor.dl_budget.used, executor.dl_budget.limit
        )
    )

    # Recovery activity: rescues are degraded (working via fallback),
    # gave-ups are failing (client-visible errors happened).
    rescued = sum(
        int(counter.value)
        for outcome, counter in executor._m_recoveries.items()
        if outcome != "gave-up"
    )
    gave_up = int(executor._m_recoveries["gave-up"].value)
    status = OK
    if gave_up:
        status = FAILING
    elif rescued:
        status = DEGRADED
    components.append(
        ComponentHealth(
            "recovery",
            status,
            f"rescued={rescued} gave_up={gave_up}",
        )
    )
    if len(ledger):
        components.append(
            ComponentHealth(
                "recovery.ledger",
                DEGRADED,
                f"entries={len(ledger)} rescues={ledger.rescues()} "
                "(rescued operators now lowered up-front)",
            )
        )

    # Flight recorder: a dropping ring still works (newest kept) but a
    # postmortem would be missing history, so eviction degrades it.
    telemetry = db.telemetry
    if telemetry.enabled:
        recorder = telemetry.events
        components.append(
            ComponentHealth(
                "telemetry.events",
                DEGRADED if recorder.dropped else OK,
                f"buffered={len(recorder)}/{recorder.max_events} "
                f"emitted={recorder.emitted_total} dropped={recorder.dropped}",
            )
        )
        # SLO burn rates: a fast-window burn is DEGRADED (acute incident,
        # page-soon); fast + slow burning together is FAILING (sustained,
        # budget actively exhausting).
        for model, slo in sorted(telemetry.slo.snapshot().items()):
            if slo["burning_fast"] and slo["burning_slow"]:
                status = FAILING
            elif slo["burning_fast"] or slo["burning_slow"]:
                status = DEGRADED
            else:
                status = OK
            components.append(
                ComponentHealth(
                    f"slo:{model}",
                    status,
                    f"fast_burn={slo['fast_burn']} slow_burn={slo['slow_burn']} "
                    f"budget={slo['error_budget']} "
                    f"latency_ms={slo['latency_ms']:g}",
                )
            )

    # Armed fault injections mean the session is deliberately unreliable.
    faults = db.faults
    if faults.active and faults.armed_count:
        components.append(
            ComponentHealth(
                "faults",
                DEGRADED,
                f"armed={faults.armed_count} injected={faults.injected_total}",
            )
        )

    report = HealthReport(components)
    _publish(telemetry.registry, report)
    return report


def _publish(registry, report: HealthReport) -> None:
    """Refresh the ``health_*`` gauges from a collected report."""
    registry.gauge(
        "health_overall_status", "Worst component status (0 ok, 1 degraded, 2 failing)"
    ).set(_SEVERITY[report.status])
    registry.gauge(
        "health_components", "Components contributing to the health report"
    ).set(len(report.components))
    for component in report.components:
        registry.gauge(
            "health_component_status",
            "Per-component status (0 ok, 1 degraded, 2 failing)",
            component=component.component,
        ).set(_SEVERITY[component.status])
