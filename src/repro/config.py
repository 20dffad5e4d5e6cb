"""System-wide configuration.

The paper's experiments run on an AWS r4.2xlarge (8 cores, 61 GB RAM) with a
2 GB memory-threshold for the rule-based optimizer and a 20 GB buffer pool.
We reproduce the same *ratios* at laptop scale: the defaults below keep the
relationship ``operator memory  >  optimizer threshold  >  what the
whole-tensor engines can hold`` for the large workloads, and the reverse for
the small ones, which is all the paper's conclusions depend on.

The system-wide knobs live in one immutable dataclass so a
:class:`repro.session.Database` can be spun up with a single object and
experiments can sweep parameters without global state.

The rule for what belongs here: a field exists only while something (a
caller, test, benchmark or example) sets it, and every default is written
once, at the component that uses it.  A setting nobody overrides (the
server's batch size, a telemetry ring's capacity, the placement ring's
virtual nodes) stays a constructor default of its component, validated
there, and is not forwarded through this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def mb(n: float) -> int:
    """Convert megabytes to bytes (convenience for configuration literals)."""
    return int(n * MB)


def gb(n: float) -> int:
    """Convert gigabytes to bytes (convenience for configuration literals)."""
    return int(n * GB)


@dataclass(frozen=True)
class ConnectorCostModel:
    """Cost model for the ConnectorX-style cross-system transfer.

    The serialize/deserialize work performed by
    :class:`repro.dlruntime.connector.Connector` is real CPU work; this model
    adds the *wire* component (the paper's deployments move data between
    PostgreSQL and a separate DL process, sometimes across hosts).  The
    defaults approximate a loopback socket: ~2 GB/s effective bandwidth and
    a small fixed per-batch latency.
    """

    bandwidth_bytes_per_s: float = 2.0 * GB
    per_row_overhead_s: float = 2.0e-7
    per_batch_latency_s: float = 5.0e-4

    def wire_time(self, nbytes: int, nrows: int, nbatches: int = 1) -> float:
        """Modeled wire time in seconds for moving ``nbytes`` / ``nrows``."""
        return (
            nbytes / self.bandwidth_bytes_per_s
            + nrows * self.per_row_overhead_s
            + nbatches * self.per_batch_latency_s
        )


@dataclass(frozen=True)
class SystemConfig:
    """The system-wide tunables of the reproduced system.

    The central ones are the paper's experimental knobs:

    * ``memory_threshold_bytes`` — the rule-based optimizer's threshold
      (2 GB in the paper; 2 MB at our default scale).
    * ``dl_memory_limit_bytes`` — what the whole-tensor engines (DL-centric
      and UDF-centric) may allocate before raising OOM (the paper's 61 GB
      instance memory; 64 MB at our scale).
    * ``buffer_pool_bytes`` — RDBMS buffer pool (the paper's 20 GB; spilling
      to disk beyond it is what lets relation-centric execution survive).
    """

    page_size: int = 64 * KB
    buffer_pool_bytes: int = 32 * MB
    dl_memory_limit_bytes: int = 64 * MB
    memory_threshold_bytes: int = 2 * MB
    tensor_block_rows: int = 128
    tensor_block_cols: int = 128
    # Buffer pool replacement policy: "lru", "clock", or "2q" (the
    # scan-resistant policy Sec. 5.1 calls for when tensor-block sweeps
    # share the pool with relational working sets).
    eviction_policy: str = "lru"
    seed: int = 2024
    connector: ConnectorCostModel = field(default_factory=ConnectorCostModel)
    # Unified telemetry (repro.telemetry): metrics registry, query spans,
    # per-query stats.  Disabling builds the collectors disabled, so the
    # hot paths pay one attribute check and record nothing.
    telemetry_enabled: bool = True
    # Bound on retained finished spans (a ring: the newest are kept).  A
    # span holds ~430 bytes, so this caps the buffer near 7 MB; until it is
    # full, memory grows with every statement served.
    telemetry_max_spans: int = 16384
    # When non-empty, unhandled server worker errors automatically write
    # a postmortem bundle (``Database.dump_diagnostics``) into this
    # directory; empty disables auto-dump.
    diagnostics_dir: str = ""
    # -- deterministic fault injection (repro.faults) --------------------
    # Seed for the session's FaultInjector (probabilistic triggers, bit
    # positions); 0 means "derive from `seed`" so a plain config is still
    # fully deterministic.
    faults_seed: int = 0
    # -- runtime resilience (repro.resilience) ---------------------------
    # Master switch for execution-time recovery: with it off, an OOM or
    # stage timeout kills the query exactly as before.
    resilience_enabled: bool = True
    # How many rescue attempts (re-lowering or batch splits) one query may
    # spend before the executor gives up and re-raises.
    resilience_max_recoveries_per_query: int = 3
    # Batch-split recovery halves the batch recursively; stop splitting
    # once a half would drop below this many rows.
    resilience_split_floor_rows: int = 16
    # Cooperative per-stage wall-clock deadline, checked at layer/stripe/
    # stage boundaries; 0 disables the watchdog.
    resilience_stage_timeout_ms: float = 0.0
    # -- circuit breakers (repro.resilience.breaker) ---------------------
    # Per-model (serving front-end) and per-engine (executor) breakers.
    breaker_enabled: bool = True
    # Sliding window of most-recent request outcomes a breaker evaluates.
    breaker_window: int = 8
    # A breaker opens on its window's failure rate only once the window
    # holds at least this many outcomes.
    breaker_min_samples: int = 4
    # An open breaker moves to half-open after rejecting this many
    # requests (request-count based, so scenarios replay deterministically
    # regardless of wall-clock speed).
    breaker_cooldown_requests: int = 4
    # -- service-level objectives (repro.telemetry.slo) ------------------
    # Burn rates are 0 until a window holds this many outcomes.
    slo_min_samples: int = 8
    # -- process-parallel serving (repro.cluster) ------------------------
    # Worker *processes* hosting sharded model replicas behind the
    # serving front-end.  0 disables the cluster entirely: serving stays
    # on the in-process thread path and none of the knobs below matter.
    cluster_workers: int = 0
    # Tensor payloads up to this size cross the process boundary via
    # shared-memory segments (zero pickling); larger batches fall back to
    # pickling through the control pipe (cluster_shm_fallback_total).
    cluster_shm_max_bytes: int = 8 * MB
    # How often an idle worker process emits a heartbeat.
    cluster_heartbeat_interval_ms: float = 25.0
    # A worker whose last heartbeat is older than this is declared
    # wedged/crashed: its in-flight requests are re-routed to a replica
    # and the process is respawned with its placement restored.
    cluster_heartbeat_timeout_ms: float = 2000.0
    # Upper bound on one cluster PREDICT, covering reroutes and the wait
    # for a respawning worker.
    cluster_request_timeout_ms: float = 30000.0
    # -- sampling stage profiler (repro.telemetry.profiler) --------------
    # Start the background stage sampler with the Database (opt-in; it
    # can also be toggled at runtime via Database.start_profiler()).
    profiler_enabled: bool = False
    # Sampling period of the profiler's daemon thread.
    profiler_interval_ms: float = 5.0
    # -- online model lifecycle (repro.lifecycle) ------------------------
    # Bound on graceful drain: how long Database.close(), ModelServer
    # shutdown, and ClusterPool rolling restarts wait for in-flight and
    # queued requests to finish before abandoning them.
    lifecycle_drain_timeout_s: float = 30.0
    # Canary-routed rows that must complete with zero failures before an
    # auto-promote fires (when deploy_auto_promote is on).
    deploy_canary_min_requests: int = 64
    # Shadow-compared rows required before the divergence verdict.
    deploy_shadow_min_requests: int = 64
    # Whether shadow/canary deployments advance on their own once their
    # minimums are met; False leaves the traffic split in place until an
    # explicit DEPLOY (promote) or ROLLBACK.
    deploy_auto_promote: bool = True

    def __post_init__(self) -> None:
        if self.page_size < 4 * KB:
            raise ConfigError(f"page_size must be >= 4 KiB, got {self.page_size}")
        if self.buffer_pool_bytes < 4 * self.page_size:
            raise ConfigError("buffer pool must hold at least four pages")
        for name in (
            "dl_memory_limit_bytes",
            "memory_threshold_bytes",
            "tensor_block_rows",
            "tensor_block_cols",
            "telemetry_max_spans",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.faults_seed < 0:
            raise ConfigError("faults_seed must be >= 0")
        if self.resilience_max_recoveries_per_query < 0:
            raise ConfigError("resilience_max_recoveries_per_query must be >= 0")
        if self.resilience_split_floor_rows < 1:
            raise ConfigError("resilience_split_floor_rows must be >= 1")
        if self.resilience_stage_timeout_ms < 0:
            raise ConfigError("resilience_stage_timeout_ms must be >= 0")
        if self.breaker_window < 1:
            raise ConfigError("breaker_window must be >= 1")
        if self.breaker_min_samples < 1:
            raise ConfigError("breaker_min_samples must be >= 1")
        if self.breaker_min_samples > self.breaker_window:
            raise ConfigError("breaker_min_samples cannot exceed breaker_window")
        if self.breaker_cooldown_requests < 1:
            raise ConfigError("breaker_cooldown_requests must be >= 1")
        if self.eviction_policy not in ("lru", "clock", "2q"):
            raise ConfigError(
                f"eviction_policy must be 'lru', 'clock', or '2q', "
                f"got {self.eviction_policy!r}"
            )
        if self.slo_min_samples < 1:
            raise ConfigError("slo_min_samples must be >= 1")
        if self.profiler_interval_ms <= 0:
            raise ConfigError("profiler_interval_ms must be positive")
        if self.cluster_workers < 0:
            raise ConfigError("cluster_workers must be >= 0")
        if self.cluster_shm_max_bytes < 1:
            raise ConfigError("cluster_shm_max_bytes must be >= 1")
        if self.cluster_heartbeat_interval_ms <= 0:
            raise ConfigError("cluster_heartbeat_interval_ms must be positive")
        if self.cluster_heartbeat_timeout_ms <= self.cluster_heartbeat_interval_ms:
            raise ConfigError(
                "cluster_heartbeat_timeout_ms must exceed "
                "cluster_heartbeat_interval_ms"
            )
        if self.cluster_request_timeout_ms <= 0:
            raise ConfigError("cluster_request_timeout_ms must be positive")
        if self.lifecycle_drain_timeout_s < 0:
            raise ConfigError("lifecycle_drain_timeout_s must be >= 0")
        for name in ("deploy_canary_min_requests", "deploy_shadow_min_requests"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def buffer_pool_pages(self) -> int:
        """Number of page frames the buffer pool can hold."""
        return self.buffer_pool_bytes // self.page_size

    def with_options(self, **overrides: object) -> "SystemConfig":
        """Return a copy with the given fields replaced (validates again)."""
        for name in overrides:
            if name not in _FIELD_NAMES:
                raise ConfigError(f"unknown option {name!r}")
        return replace(self, **overrides)  # type: ignore[arg-type]


_FIELD_NAMES = frozenset(f.name for f in fields(SystemConfig))
DEFAULT_CONFIG = SystemConfig()
