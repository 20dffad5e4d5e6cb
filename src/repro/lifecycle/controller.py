"""The deployment state machine.

One :class:`Deployment` per ``DEPLOY MODEL`` statement, walking

    preparing -> shadowing -> canary -> promoted | rolled_back

(either middle stage is optional: ``DEPLOY ... SHADOW`` starts at
shadowing, ``DEPLOY ... CANARY x%`` at canary, and a bare ``DEPLOY``
promotes immediately).  The controller owns the *decision* logic; the
copy-on-write :class:`~repro.lifecycle.catalog.ModelCatalog` owns the
*publication* — every transition is exactly one snapshot swap.

Auto-rollback fires on any of three signals, all fed from the serving
path via :meth:`observe_canary` / :meth:`observe_shadow`:

- the deployment's per-version circuit breaker (named by the version
  record's ``m@v`` id, separate from the server's per-model breakers)
  trips OPEN;
- the model's SLO enters fast burn while the deployment is live;
- the shadow-divergence rate exceeds
  :data:`SHADOW_DIVERGENCE_THRESHOLD` once enough rows have been
  compared.

Rollback re-points traffic in one swap and emits a ``deploy.rollback``
flight-recorder event carrying the reason.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import NamedTuple

from ..errors import DeploymentError, NoServableVersionError
from ..resilience.breaker import OPEN, BreakerBoard
from .catalog import V_READY, V_RETIRED

#: Deployment states (the state machine's nodes).
PREPARING = "preparing"
SHADOWING = "shadowing"
CANARY = "canary"
PROMOTED = "promoted"
ROLLED_BACK = "rolled_back"

class DeploymentRow(NamedTuple):
    """One row of the ``deployments`` system relation (``SHOW DEPLOYMENTS``)."""

    deploy_id: int
    model: str
    version: str
    state: str
    canary_percent: float
    shadow: bool
    requests: int
    failures: int
    total_rows: int
    shadow_compared: int
    shadow_diverged: int
    generation: int
    reason: str
    history: str


#: Fraction of shadow-compared rows allowed to disagree with the serving
#: version (the label-disagreement serving error bound) before a shadow
#: deployment auto-rolls-back.
SHADOW_DIVERGENCE_THRESHOLD = 0.02


@dataclass
class Deployment:
    """One deployment's mutable record (guarded by the controller lock)."""

    deploy_id: int
    model: str
    version: str
    previous: str
    canary_percent: float | None = None
    shadow: bool = False
    state: str = PREPARING
    requests: int = 0       # canary-routed rows executed on the new version
    failures: int = 0       # canary rows whose new-version execution failed
    total_rows: int = 0     # all rows routed while the canary was live
    shadow_compared: int = 0
    shadow_diverged: int = 0
    generation: int = 0     # generation of the latest transition's publish
    reason: str = ""
    history: list[str] = field(default_factory=list)

    def transition(self, state: str, generation: int) -> None:
        self.state = state
        self.generation = generation
        self.history.append(state)

    def history_str(self) -> str:
        return ">".join(self.history)

    def as_row(self) -> DeploymentRow:
        """The ``SHOW DEPLOYMENTS`` row: the fields of the same names, with
        no canary as 0 % and the history as one string."""
        row = DeploymentRow._make(getattr(self, name) for name in DeploymentRow._fields)
        return row._replace(
            canary_percent=self.canary_percent if self.canary_percent is not None else 0.0,
            history=self.history_str(),
        )


class DeploymentController:
    """Drives deployments against a lifecycle catalog: ``config`` gives the
    deploy and breaker settings, ``recorder`` takes the ``deploy.*``
    events and ``slo`` is read for fast burn."""

    def __init__(self, catalog, config, recorder, slo):
        self._catalog = catalog
        self._config = config
        self._recorder = recorder
        self._slo = slo
        self._lock = threading.RLock()
        self._deployments: list[Deployment] = []
        self._active: dict[str, Deployment] = {}
        self._next_id = 1
        # Per-version breakers: one breaker per deployed version, so a
        # broken v2 trips its own circuit without touching the serving
        # version's (or the server's per-model) breaker state.
        self.breakers = (
            BreakerBoard.from_config(config, seed=config.faults_seed)
            if config.breaker_enabled
            else None
        )

    def breaker_for(self, model: str, version: str):
        if self.breakers is None:
            return None
        record = self._catalog.snapshot().entry(model).record(version)
        return self.breakers.get(record.name)

    # -- the state machine ----------------------------------------------

    def deploy(
        self,
        model: str,
        version: str,
        canary_percent: float | None = None,
        shadow: bool = False,
    ) -> Deployment:
        """Start (or immediately complete) one deployment."""
        model, version = model.lower(), version.lower()
        with self._lock:
            snapshot = self._catalog.snapshot()
            entry = snapshot.entry(model)
            if entry is None:
                raise DeploymentError(
                    f"no model named {model!r}; register it first"
                )
            in_flight = self._active.get(model)
            if in_flight is not None:
                raise DeploymentError(
                    f"model {model!r} already has deployment "
                    f"#{in_flight.deploy_id} in flight "
                    f"(version {in_flight.version}, state {in_flight.state})"
                )
            record = entry.record(version)
            if record is None or record.state not in (V_READY, V_RETIRED):
                raise NoServableVersionError(
                    model, entry.candidates(), requested=version
                )
            dep = Deployment(
                deploy_id=self._next_id,
                model=model,
                version=version,
                previous=entry.serving,
                canary_percent=canary_percent,
                shadow=shadow,
                generation=snapshot.generation,
            )
            self._next_id += 1
            dep.history.append(PREPARING)
            self._deployments.append(dep)
            self._recorder.emit(
                "deploy.start",
                deploy_id=dep.deploy_id,
                model=model,
                version=version,
                canary_percent=canary_percent,
                shadow=shadow,
            )
            try:
                if shadow:
                    gen = self._catalog.route_shadow(model, version)
                    dep.transition(SHADOWING, gen)
                elif canary_percent is not None:
                    gen = self._catalog.route_canary(
                        model, version, canary_percent
                    )
                    dep.transition(CANARY, gen)
                else:
                    self._promote_locked(dep)
                    return dep
            except Exception as exc:
                # The swap never published (fault sites fire before the
                # pointer assignment), so the old version still serves.
                dep.reason = f"deploy aborted: {exc}"
                dep.transition(ROLLED_BACK, self._catalog.generation)
                self._recorder.emit(
                    "deploy.rollback",
                    deploy_id=dep.deploy_id,
                    model=model,
                    version=version,
                    reason="swap-failed",
                )
                raise
            self._active[model] = dep
            self._emit_state(dep)
            return dep

    def promote(self, model: str) -> Deployment:
        """Manually advance the in-flight deployment straight to promoted."""
        with self._lock:
            dep = self._active.get(model.lower())
            if dep is None:
                raise DeploymentError(
                    f"no in-flight deployment for model {model!r}"
                )
            self._promote_locked(dep)
            return dep

    def rollback(self, model: str, reason: str = "manual") -> Deployment:
        """Roll back the in-flight — or the last promoted — deployment."""
        model = model.lower()
        with self._lock:
            dep = self._active.get(model)
            if dep is not None:
                # In-flight canary/shadow: clearing the split is enough,
                # the previous version never stopped serving.
                gen = self._catalog.rollback(model)
                del self._active[model]
                dep.reason = reason
                dep.transition(ROLLED_BACK, gen)
                self._emit_rollback(dep, reason)
                return dep
            for candidate in reversed(self._deployments):
                if candidate.model == model and candidate.state == PROMOTED:
                    gen = self._catalog.rollback(
                        model, serving=candidate.previous
                    )
                    candidate.reason = reason
                    candidate.transition(ROLLED_BACK, gen)
                    self._emit_rollback(candidate, reason)
                    return candidate
            raise DeploymentError(
                f"no deployment to roll back for model {model!r}"
            )

    def _promote_locked(self, dep: Deployment) -> None:
        gen = self._catalog.promote(dep.model, dep.version)
        self._active.pop(dep.model, None)
        dep.transition(PROMOTED, gen)
        self._recorder.emit(
            "deploy.promote",
            deploy_id=dep.deploy_id,
            model=dep.model,
            version=dep.version,
            generation=gen,
        )

    def _emit_state(self, dep: Deployment) -> None:
        self._recorder.emit(
            "deploy.state",
            deploy_id=dep.deploy_id,
            model=dep.model,
            version=dep.version,
            state=dep.state,
            generation=dep.generation,
        )

    def _emit_rollback(self, dep: Deployment, reason: str) -> None:
        self._recorder.emit(
            "deploy.rollback",
            deploy_id=dep.deploy_id,
            model=dep.model,
            version=dep.version,
            reason=reason,
            generation=dep.generation,
        )

    # -- signals from the serving path ----------------------------------

    def observe_canary(
        self,
        model: str,
        version: str,
        ok: bool,
        canary_rows: int,
        total_rows: int,
        error: BaseException | None = None,
    ) -> None:
        """Record one routed call's canary outcome; maybe advance/rollback."""
        with self._lock:
            dep = self._active.get(model)
            if dep is None or dep.version != version or dep.state != CANARY:
                return
            dep.total_rows += total_rows
            dep.requests += canary_rows
            if not ok:
                dep.failures += canary_rows
        if canary_rows == 0 or self._breaker_tripped(model, version, ok):
            return
        if not ok and self.breakers is None:
            # Breakers disabled: a single canary failure still rolls back
            # rather than keep burning the slice on a broken version.
            self.rollback(model, reason="canary-failure")
            return
        if self._slo_fast_burning(model):
            self.rollback(model, reason="slo-fast-burn")
            return
        with self._lock:
            dep = self._active.get(model)
            if dep is None or dep.state != CANARY:
                return
            cfg = self._config
            if (
                ok
                and cfg.deploy_auto_promote
                and dep.failures == 0
                and dep.requests >= cfg.deploy_canary_min_requests
            ):
                self._promote_locked(dep)

    def observe_shadow(
        self,
        model: str,
        version: str,
        compared: int,
        diverged: int,
        ok: bool,
        error: BaseException | None = None,
    ) -> None:
        """Record one mirrored call's comparison; maybe advance/rollback."""
        with self._lock:
            dep = self._active.get(model)
            if dep is None or dep.version != version or dep.state != SHADOWING:
                return
            dep.shadow_compared += compared
            dep.shadow_diverged += diverged
            if not ok:
                dep.failures += 1
        if self._breaker_tripped(model, version, ok):
            return
        with self._lock:
            dep = self._active.get(model)
            if dep is None or dep.state != SHADOWING:
                return
            cfg = self._config
            if dep.shadow_compared < cfg.deploy_shadow_min_requests:
                return
            rate = dep.shadow_diverged / dep.shadow_compared
            if rate > SHADOW_DIVERGENCE_THRESHOLD:
                self._recorder.emit(
                    "deploy.shadow_diverged",
                    deploy_id=dep.deploy_id,
                    model=model,
                    version=version,
                    compared=dep.shadow_compared,
                    diverged=dep.shadow_diverged,
                    rate=round(rate, 6),
                )
                self.rollback(model, reason="shadow-divergence")
                return
            if not cfg.deploy_auto_promote:
                return
            # Shadow verdict passed: advance to canary when one was
            # requested, otherwise promote outright.
            if dep.canary_percent is not None:
                gen = self._catalog.route_canary(
                    model, dep.version, dep.canary_percent
                )
                dep.transition(CANARY, gen)
                self._emit_state(dep)
            else:
                self._promote_locked(dep)

    def _breaker_tripped(self, model: str, version: str, ok: bool) -> bool:
        """Feed one outcome to the version's breaker; roll back (and
        return True) when that trips it OPEN."""
        breaker = self.breaker_for(model, version)
        if breaker is None:
            return False
        if ok:
            breaker.record_success()
            return False
        breaker.record_failure()
        if breaker.state != OPEN:
            return False
        self.rollback(model, reason="breaker-open")
        return True

    def _slo_fast_burning(self, model: str) -> bool:
        state = self._slo.snapshot().get(model)
        return bool(state and state.get("burning_fast"))

    # -- introspection ---------------------------------------------------

    def active(self) -> list[Deployment]:
        with self._lock:
            return list(self._active.values())

    def rows(self) -> list[DeploymentRow]:
        """``SHOW DEPLOYMENTS`` rows, oldest deployment first."""
        with self._lock:
            return [dep.as_row() for dep in self._deployments]

    def snapshot(self) -> dict:
        """JSON-safe state for the diagnostics bundle's lifecycle section
        (the deployment rows travel as the ``deployments`` relation)."""
        breaker_rows = (
            [list(row) for row in self.breakers.rows()]
            if self.breakers is not None
            else []
        )
        return {
            "generation": self._catalog.generation,
            "history": [
                [gen, change] for gen, change in self._catalog.history()[-64:]
            ],
            "breakers": breaker_rows,
        }
