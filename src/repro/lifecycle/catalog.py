"""The versioned, copy-on-write model catalog: the one owner of models.

Each model version is one :class:`VersionRecord` (model name, version,
the ``Model`` object, its block tables, state, generation), and
:meth:`CatalogSnapshot.resolve` is the one resolver from user-visible
names to records.

Serving reads and catalog writes are decoupled MVCC-style: every mutation
(register a version, start a canary, promote, roll back) builds a brand
new immutable :class:`CatalogSnapshot` off to the side and publishes it
with a single pointer assignment.  Readers call :meth:`ModelCatalog.
snapshot` once at query start and route against that frozen view for the
rest of the call — they never take a lock, never see a half-applied
routing change, and keep serving the prior version while a deploy is in
flight.  Writers serialize on a private mutation lock that no read path
ever touches, so DEPLOY / ROLLBACK run fully off the session's
writer-preferring ``ReadWriteLock``.

Each published snapshot carries a monotonically increasing ``generation``
stamp; the catalog keeps the publication history so every served response
is attributable to exactly one published generation (the concurrent-DDL
test asserts this).  Fault-injection sites ``lifecycle.swap`` and
``lifecycle.rollback`` fire *before* the pointer swap: a crash at either
site leaves the previous snapshot — and therefore the previous version —
serving untouched.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from ..errors import CatalogError, DeploymentError
from ..storage.catalog import (
    BASE_VERSION,
    V_CANARY,
    V_READY,
    V_RETIRED,
    V_SERVING,
    V_SHADOW,
    VersionRecord,
    split_version_name,
)
from ..telemetry.events import FlightRecorder


@dataclass(frozen=True)
class ModelEntry:
    """Immutable routing state for one model inside a snapshot."""

    model: str
    serving: str
    canary: str | None = None
    canary_percent: float = 0.0
    shadow: str | None = None
    versions: tuple[VersionRecord, ...] = ()

    def record(self, version: str) -> VersionRecord | None:
        for rec in self.versions:
            if rec.version == version:
                return rec
        return None

    def candidates(self) -> list[tuple[str, str]]:
        """``(version, state)`` pairs, for :class:`NoServableVersionError`."""
        return [(rec.version, rec.state) for rec in self.versions]


class CatalogSnapshot:
    """One immutable, generation-stamped view of every model's routing."""

    __slots__ = ("generation", "_entries")

    def __init__(self, generation: int, entries: dict[str, ModelEntry]):
        self.generation = generation
        self._entries = entries

    def entry(self, model: str) -> ModelEntry | None:
        return self._entries.get(model)

    def models(self) -> list[str]:
        return sorted(self._entries)

    def records(self) -> list[VersionRecord]:
        """Every version of every model, models in name order."""
        return [
            rec for name in self.models() for rec in self._entries[name].versions
        ]

    def resolve(self, name: str) -> VersionRecord:
        """The one name resolver: ``"m"`` is model ``m``'s serving
        version, ``"m@v"`` that explicit version."""
        entry = self._entries.get(name.lower())
        if entry is not None:
            return entry.record(entry.serving)
        model, version = split_version_name(name)
        entry = self._entries.get(model)
        record = entry.record(version) if entry and version else None
        if record is None:
            raise CatalogError(f"no model named {name!r}")
        return record


#: Routing fields of an entry with no canary or shadow in flight.
_NO_SPLIT = {"canary": None, "canary_percent": 0.0, "shadow": None}


class ModelCatalog:
    """The mutable head: holds the current snapshot, serializes writers.

    All mutators copy the entry map, fire their fault site, then publish
    the new snapshot atomically.  ``snapshot()`` is the entire read API.
    """

    def __init__(self, injector=None, recorder=None):
        self._mutate = threading.Lock()
        self._head = CatalogSnapshot(0, {})
        self._injector = injector
        self._recorder = (
            recorder if recorder is not None else FlightRecorder(enabled=False)
        )
        #: Publication history: ``(generation, description)`` per publish.
        self._history: list[tuple[int, str]] = [(0, "empty")]

    # -- read side (lock-free) ------------------------------------------

    def snapshot(self) -> CatalogSnapshot:
        """Pin the current snapshot (a single atomic pointer read)."""
        return self._head

    @property
    def generation(self) -> int:
        return self._head.generation

    def history(self) -> list[tuple[int, str]]:
        """Published ``(generation, description)`` pairs, oldest first."""
        return list(self._history)

    def generations(self) -> set[int]:
        return {gen for gen, _ in self._history}

    # -- write side (serialized on the mutation lock) -------------------

    def register_base(
        self, model: str, model_obj, version: str = BASE_VERSION
    ) -> VersionRecord:
        """Register a freshly created model as its own serving version."""
        model = model.lower()
        with self._mutate:
            if self._head.entry(model) is not None:
                raise CatalogError(f"model {model!r} already registered")
            record = VersionRecord(
                model, model_obj, version, V_SERVING, self._head.generation + 1
            )
            entry = ModelEntry(model=model, serving=version, versions=(record,))
            self._publish_locked(
                model, entry, site=None, change=f"{model}: base {version}"
            )
            return record

    def add_version(self, model: str, version: str, model_obj) -> VersionRecord:
        """Publish a prepared (compiled) version as READY."""
        model, version = model.lower(), version.lower()
        with self._mutate:
            entry = self._require_locked(model)
            if entry.record(version) is not None:
                raise DeploymentError(
                    f"model {model!r} already has a version {version!r}"
                )
            record = VersionRecord(
                model, model_obj, version, V_READY, self._head.generation + 1
            )
            entry = replace(entry, versions=entry.versions + (record,))
            self._publish_locked(
                model, entry, site=None,
                change=f"{model}: prepared {version}",
            )
            return record

    def route_shadow(self, model: str, version: str) -> int:
        """Mirror serving traffic to ``version``; outputs are compared."""
        model, version = model.lower(), version.lower()
        with self._mutate:
            return self._reroute_locked(
                self._require_locked(model), "lifecycle.swap",
                f"shadow {version}", {version: V_SHADOW}, shadow=version,
            )

    def route_canary(self, model: str, version: str, percent: float) -> int:
        """Send ``percent``% of fingerprint-hashed traffic to ``version``."""
        model, version = model.lower(), version.lower()
        with self._mutate:
            return self._reroute_locked(
                self._require_locked(model), "lifecycle.swap",
                f"canary {version} {percent:g}%", {version: V_CANARY},
                canary=version, canary_percent=float(percent), shadow=None,
            )

    def promote(self, model: str, version: str) -> int:
        """Re-point all traffic at ``version`` in one swap."""
        model, version = model.lower(), version.lower()
        with self._mutate:
            entry = self._require_locked(model)
            return self._reroute_locked(
                entry, "lifecycle.swap", f"promote {version}",
                {entry.serving: V_RETIRED, version: V_SERVING},
                serving=version, **_NO_SPLIT,
            )

    def rollback(self, model: str, serving: str | None = None) -> int:
        """Clear any traffic split; optionally re-point serving.

        With ``serving=None`` this cancels an in-flight canary/shadow
        (the stable version never stopped serving); with a version name
        it reverts a promotion, re-pointing serving in the same swap.
        """
        with self._mutate:
            entry = self._require_locked(model.lower())
            target = entry.serving if serving is None else serving.lower()
            states = {
                cancelled: V_RETIRED
                for cancelled in (entry.canary, entry.shadow, entry.serving)
                if cancelled is not None
            }
            states[target] = V_SERVING
            return self._reroute_locked(
                entry, "lifecycle.rollback", f"rollback to {target}", states,
                serving=target, **_NO_SPLIT,
            )

    # -- internals -------------------------------------------------------

    def _require_locked(self, model: str) -> ModelEntry:
        entry = self._head.entry(model)
        if entry is None:
            raise CatalogError(
                f"no model named {model!r} in the lifecycle catalog"
            )
        return entry

    def _reroute_locked(
        self,
        entry: ModelEntry,
        site: str,
        change: str,
        states: dict[str, str],
        **routing: object,
    ) -> int:
        """One routing change: restate the named versions, re-point the
        entry, publish."""
        generation = self._head.generation + 1
        versions = tuple(
            replace(rec, state=states[rec.version], since_generation=generation)
            if states.get(rec.version, rec.state) != rec.state
            else rec
            for rec in entry.versions
        )
        return self._publish_locked(
            entry.model,
            replace(entry, versions=versions, **routing),
            site,
            f"{entry.model}: {change}",
        )

    def _publish_locked(
        self, model: str, entry: ModelEntry, site: str | None, change: str
    ) -> int:
        # The fault site fires BEFORE the pointer swap: an injected crash
        # here aborts the publish and the old snapshot keeps serving.
        if site is not None and self._injector is not None:
            self._injector.fire(site, model=model, change=change)
        entries = dict(self._head._entries)
        entries[model] = entry
        snapshot = CatalogSnapshot(self._head.generation + 1, entries)
        self._history.append((snapshot.generation, change))
        self._head = snapshot  # the atomic publication point
        self._recorder.emit(
            "lifecycle.publish", generation=snapshot.generation, change=change
        )
        return snapshot.generation
