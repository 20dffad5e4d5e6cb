"""Deterministic, seed-driven fault injection (``repro.faults``).

The paper's central claim is that relation-centric execution survives
where whole-tensor engines fail because blocks live under a buffer pool
that spills to disk.  That story is only credible if the disk path — and
every hot path above it — can be *proven* to fail safely.  This module
makes failure a first-class, replayable input:

* **Injection sites** are named chokepoints threaded through the system
  (:data:`KNOWN_SITES`): disk page reads/writes/sync, buffer-pool
  eviction, engine stage execution, result-cache lookup, server worker
  batches, and catalog-sidecar persistence.  Each site calls
  :meth:`FaultInjector.fire` once per event; with nothing armed the call
  is a single attribute check.

* A :class:`FaultSpec` arms one site with a *kind* (raise an error,
  tear a write in half, flip one bit) and a *trigger* (the Nth hit of
  the site, a seeded probability per hit, or every hit), optionally
  one-shot.  A :class:`FaultPlan` bundles specs plus a seed so an entire
  failure scenario replays bit-for-bit: the same plan and workload
  produce the same faults, in the same order, twice.

* The injector counts its activity in registry counters
  (``fault_injected_total`` / ``retry_total`` / ``recovery_total``, all
  labelled by site) — the only store of those counts — and backs the
  ``SHOW FAULTS`` SQL statement.

Error kinds raise :class:`~repro.errors.InjectedFaultError` at the site.
Corruption kinds (``torn_write`` / ``bit_flip``) return the fired spec to
the caller, which applies :func:`corrupt` to the bytes in flight — the
checksummed page format of :class:`~repro.storage.disk.FileDiskManager`
then detects the damage on a later read, exactly like real bit rot or a
power cut mid-write.

Determinism: every spec owns a ``random.Random`` seeded from the
injector seed, the site name (via CRC32, not ``hash`` — stable across
processes), and the spec's arm index.  Probabilistic triggers and bit
positions never depend on interleaving with other sites.
"""

from __future__ import annotations

import random
import threading
import zlib
from dataclasses import dataclass, field, replace

from .errors import ConfigError, InjectedFaultError
from .relational.schema import ColumnType, Schema
from .telemetry.registry import Counter, MetricsRegistry

#: Fault kinds.  ``ERROR`` raises at the site; the corruption kinds damage
#: bytes in flight and rely on page checksums for later detection.
ERROR = "error"
TORN_WRITE = "torn_write"
BIT_FLIP = "bit_flip"
FAULT_KINDS = (ERROR, TORN_WRITE, BIT_FLIP)

#: Every injection site threaded through the system.  ``SHOW FAULTS``
#: lists these even when unarmed so the operator sees the full surface.
KNOWN_SITES = (
    "disk.read_page",
    "disk.write_page",
    "disk.sync",
    "bufferpool.evict",
    "engine.stage",
    "result_cache.lookup",
    "server.batch",
    "persist.sidecar",
    "persist.sidecar_replace",
    "lifecycle.prepare",
    "lifecycle.swap",
    "lifecycle.rollback",
)


@dataclass
class FaultSpec:
    """One armed fault: where, what kind, and when it fires.

    Triggers (first match wins):

    * ``nth`` — fire on exactly the Nth hit of the site after arming
      (1-based); deterministic regardless of seed.
    * ``probability`` — fire on each hit with this probability, drawn
      from the spec's own seeded RNG.
    * neither — fire on every hit.

    ``one_shot`` (default) disarms the spec after its first firing;
    ``max_fires`` caps total firings for non-one-shot specs.
    ``transient`` marks the resulting error as retry-worthy (the server's
    bounded retry loop only retries transient faults).
    """

    site: str
    kind: str = ERROR
    nth: int | None = None
    probability: float = 0.0
    one_shot: bool = True
    max_fires: int | None = None
    transient: bool = True
    message: str = ""
    # Runtime state, owned by the injector the spec is armed on (not
    # constructor arguments: copying a template spec resets them).
    hits: int = field(default=0, compare=False, init=False)
    fires: int = field(default=0, compare=False, init=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.nth is not None and self.nth < 1:
            raise ConfigError(f"fault nth trigger must be >= 1, got {self.nth}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigError(f"max_fires must be >= 1, got {self.max_fires}")
        self._rng: random.Random | None = None

    @property
    def exhausted(self) -> bool:
        """True once this spec can never fire again."""
        if self.one_shot and self.fires > 0:
            return True
        if self.max_fires is not None and self.fires >= self.max_fires:
            return True
        # An nth trigger is spent once the Nth hit has passed.
        return self.nth is not None and self.hits >= self.nth

    @property
    def trigger(self) -> str:
        """Human-readable trigger description (``SHOW FAULTS``)."""
        if self.nth is not None:
            base = f"nth={self.nth}"
        elif self.probability > 0:
            base = f"p={self.probability}"
        else:
            base = "always"
        if self.one_shot:
            base += ",one-shot"
        elif self.max_fires is not None:
            base += f",max={self.max_fires}"
        return base


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded bundle of fault specs — one replayable scenario.

    Specs are templates: arming a plan on an injector copies them, so the
    same plan object can drive many runs (the determinism check in the
    fault-matrix suite arms one plan twice and diffs the outcomes).
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int | None = None

    def __init__(self, specs=(), seed: int | None = None):
        object.__setattr__(self, "specs", tuple(specs))
        object.__setattr__(self, "seed", seed)


def is_transient(error: BaseException) -> bool:
    """True when retrying the failed operation may succeed.

    Duck-typed on a ``transient`` attribute so the set is extensible:
    :class:`~repro.errors.InjectedFaultError` carries the armed spec's
    flag, while persistent damage (e.g.
    :class:`~repro.errors.CorruptPageError`) has no such attribute and is
    never retried.
    """
    return getattr(error, "transient", False) is True


def corrupt(data: bytes, spec: FaultSpec) -> bytes:
    """Apply a corruption-kind spec to bytes in flight.

    ``torn_write`` keeps only the first half (a power cut mid-write);
    ``bit_flip`` flips one bit at a spec-RNG-chosen position (media rot).
    """
    if not data:
        return data
    if spec.kind == TORN_WRITE:
        return data[: max(1, len(data) // 2)]
    if spec.kind == BIT_FLIP:
        rng = spec._rng if spec._rng is not None else random.Random(0)
        buf = bytearray(data)
        buf[rng.randrange(len(buf))] ^= 1 << rng.randrange(8)
        return bytes(buf)
    return data


class FaultInjector:
    """Arms fault specs on named sites and fires them deterministically.

    Thread-safe: server workers and the storage layer hit sites
    concurrently; all spec state is guarded by one lock.  The disabled
    fast path (nothing armed) is a single boolean check with no lock.
    """

    def __init__(self, seed: int = 0, metrics: MetricsRegistry | None = None):
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._specs: dict[str, list[FaultSpec]] = {}
        self._site_hits: dict[str, int] = {}
        self._armed = 0
        self._enabled = False
        self._registry = metrics if metrics is not None else MetricsRegistry()
        # Per-site counters, created on a site's first fire/retry/recovery.
        self._m_injected: dict[str, Counter] = {}
        self._m_retries: dict[str, Counter] = {}
        self._m_recoveries: dict[str, Counter] = {}
        #: Optional flight recorder; every fired fault is logged as a
        #: ``fault.injected`` event with its site and call context.
        self.recorder = None

    # -- arming ----------------------------------------------------------

    def arm(self, spec: FaultSpec | None = None, /, **kwargs: object) -> FaultSpec:
        """Arm one fault; returns the live (tracked) spec.

        Accepts either a :class:`FaultSpec` (copied, so callers can reuse
        templates) or the spec fields as keyword arguments::

            db.faults.arm(site="disk.read_page", nth=3)
        """
        if spec is None:
            spec = FaultSpec(**kwargs)  # type: ignore[arg-type]
        else:
            spec = replace(spec)
        with self._lock:
            index = sum(len(v) for v in self._specs.values())
            spec._rng = random.Random(
                (self.seed * 1_000_003)
                ^ zlib.crc32(f"{spec.site}#{index}".encode("utf-8"))
            )
            self._specs.setdefault(spec.site, []).append(spec)
            self._armed += 1
            self._enabled = True
        return spec

    def load_plan(self, plan: FaultPlan) -> list[FaultSpec]:
        """Arm every spec of a plan; the plan's seed overrides the
        injector's for specs armed from it (by re-seeding the injector
        when the plan carries one)."""
        if plan.seed is not None:
            self.seed = int(plan.seed)
        return [self.arm(spec) for spec in plan.specs]

    def disarm(self, site: str | None = None) -> None:
        """Remove armed specs for one site (or all sites)."""
        with self._lock:
            if site is None:
                self._specs.clear()
            else:
                self._specs.pop(site, None)
            self._armed = sum(len(v) for v in self._specs.values())
            self._enabled = self._armed > 0

    @property
    def armed_count(self) -> int:
        return self._armed

    @property
    def active(self) -> bool:
        """True when anything is armed or any fault activity was recorded."""
        return (
            self._enabled
            or bool(self._m_injected)
            or bool(self._m_retries)
            or bool(self._m_recoveries)
        )

    # -- firing ----------------------------------------------------------

    def fire(self, site: str, **context: object) -> FaultSpec | None:
        """One hit of an injection site.

        Returns ``None`` (no fault), raises
        :class:`~repro.errors.InjectedFaultError` (``error`` kind), or
        returns the fired spec (corruption kinds) for the caller to apply
        via :func:`corrupt`.
        """
        if not self._enabled:
            return None
        with self._lock:
            self._site_hits[site] = self._site_hits.get(site, 0) + 1
            specs = self._specs.get(site)
            if not specs:
                return None
            for spec in specs:
                if spec.exhausted:
                    spec.hits += 1
                    continue
                spec.hits += 1
                if spec.nth is not None:
                    should_fire = spec.hits == spec.nth
                elif spec.probability > 0:
                    assert spec._rng is not None
                    should_fire = spec._rng.random() < spec.probability
                else:
                    should_fire = True
                if not should_fire:
                    continue
                spec.fires += 1
                self._counter(self._m_injected, "fault_injected_total", site).inc()
                if self.recorder is not None:
                    self.recorder.emit(
                        "fault.injected",
                        site=site,
                        fault=spec.kind,
                        transient=spec.transient,
                        **{
                            k: v
                            for k, v in context.items()
                            if k not in ("site", "fault", "transient")
                        },
                    )
                if spec.kind == ERROR:
                    raise InjectedFaultError(
                        site,
                        transient=spec.transient,
                        message=spec.message,
                        context=context,
                    )
                return spec
        return None

    # -- recovery accounting --------------------------------------------

    def record_retry(self, site: str) -> None:
        """Count one retry attempt provoked by a (transient) fault."""
        with self._lock:
            self._counter(self._m_retries, "retry_total", site).inc()

    def record_recovery(self, site: str) -> None:
        """Count one transparent recovery (retry succeeded, recompute
        served the request, backup catalog restored, ...)."""
        with self._lock:
            self._counter(self._m_recoveries, "recovery_total", site).inc()

    # -- introspection (SHOW FAULTS) ------------------------------------

    @property
    def injected_total(self) -> int:
        return _total(self._m_injected)

    @property
    def retry_total(self) -> int:
        return _total(self._m_retries)

    @property
    def recovery_total(self) -> int:
        return _total(self._m_recoveries)

    def hit_count(self, site: str) -> int:
        return self._site_hits.get(site, 0)

    def rows(self) -> list[tuple]:
        """``SHOW FAULTS`` rows: one per armed spec, plus one per known
        (or previously active) unarmed site."""
        with self._lock:
            out: list[tuple] = []
            sites = sorted(set(KNOWN_SITES) | set(self._specs) | set(self._site_hits))
            for site in sites:
                specs = self._specs.get(site, [])
                hits = self._site_hits.get(site, 0)
                fires = _total(self._m_injected, site)
                retries = _total(self._m_retries, site)
                recoveries = _total(self._m_recoveries, site)
                if specs:
                    for spec in specs:
                        out.append(
                            (
                                site,
                                spec.kind,
                                spec.trigger,
                                spec.transient,
                                True,
                                spec.hits,
                                spec.fires,
                                retries,
                                recoveries,
                            )
                        )
                else:
                    out.append(
                        (site, "-", "-", False, False, hits, fires, retries, recoveries)
                    )
            return out

    def _counter(self, cache: dict[str, Counter], name: str, site: str) -> Counter:
        # Callers hold self._lock.
        counter = cache.get(site)
        if counter is None:
            counter = self._registry.counter(
                name, f"{name} by injection site", site=site
            )
            cache[site] = counter
        return counter


def _total(counters: dict[str, Counter], site: str | None = None) -> int:
    """One site's count (or every site's, summed) from per-site counters."""
    if site is not None:
        counter = counters.get(site)
        return int(counter.value) if counter is not None else 0
    return int(sum(c.value for c in list(counters.values())))


#: Shared disabled injector: components constructed without explicit
#: fault wiring (unit tests, benchmarks) pay one boolean check per site.
NULL_INJECTOR = FaultInjector()

#: The ``faults`` system relation (``SHOW FAULTS``, see ``rows``).
FAULT_SCHEMA = Schema.of(
    ("site", ColumnType.TEXT),
    ("kind", ColumnType.TEXT),
    ("trigger", ColumnType.TEXT),
    ("transient", ColumnType.BOOL),
    ("armed", ColumnType.BOOL),
    ("hits", ColumnType.INT),
    ("fires", ColumnType.INT),
    ("retries", ColumnType.INT),
    ("recoveries", ColumnType.INT),
)
FAULT_COLUMNS = FAULT_SCHEMA.names
