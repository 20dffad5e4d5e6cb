"""System-wide configuration.

The paper's experiments run on an AWS r4.2xlarge (8 cores, 61 GB RAM) with a
2 GB memory-threshold for the rule-based optimizer and a 20 GB buffer pool.
We reproduce the same *ratios* at laptop scale: the defaults below keep the
relationship ``operator memory  >  optimizer threshold  >  what the
whole-tensor engines can hold`` for the large workloads, and the reverse for
the small ones, which is all the paper's conclusions depend on.

All knobs live in one immutable dataclass so a :class:`repro.session.Database`
can be spun up with a single object and experiments can sweep parameters
without global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    """Every tunable of the reproduced system in one place.

    Attributes mirror the paper's experimental knobs:

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
    default_batch_size: int = 256
    # Buffer pool replacement policy: "lru", "clock", or "2q" (the
    # scan-resistant policy Sec. 5.1 calls for when tensor-block sweeps
    # share the pool with relational working sets).
    eviction_policy: str = "lru"
    seed: int = 2024
    connector: ConnectorCostModel = field(default_factory=ConnectorCostModel)
    # Calibrated compute-efficiency factors for the external-framework
    # stand-ins (Sec. 7.1 notes TF/PyTorch win on raw compute when operators
    # fit memory; numpy is numpy everywhere, so the stand-ins report a
    # modeled latency of measured_compute / efficiency).
    framework_compute_efficiency: float = 2.5
    num_cores: int = 8
    # Unified telemetry (repro.telemetry): metrics registry, query spans,
    # per-query stats.  Disabling swaps in no-op collectors so the hot
    # paths pay only a null method call.
    telemetry_enabled: bool = True
    # Bound on retained finished spans (a ring: the newest are kept).  A
    # span holds ~430 bytes, so this caps the buffer near 7 MB; until it is
    # full, memory grows with every statement served.
    telemetry_max_spans: int = 16384
    # Ring size of retained plan-quality audit records (estimate-vs-actual
    # memory per executed inference stage; backs ``SHOW AUDIT``).
    audit_max_records: int = 1024
    # Ring size of the flight recorder (structured lifecycle events;
    # backs ``SHOW EVENTS`` / ``SHOW TIMELINE`` and diagnostics bundles).
    telemetry_max_events: int = 4096
    # When non-empty, unhandled server worker errors automatically write
    # a postmortem bundle (``Database.dump_diagnostics``) into this
    # directory; empty disables auto-dump.
    diagnostics_dir: str = ""
    # -- concurrent serving front-end (repro.server) ---------------------
    # Worker threads draining per-model request queues into batched
    # engine invocations.
    server_workers: int = 2
    # Hard cap on rows coalesced into one batched engine invocation.
    server_max_batch_size: int = 64
    # How long the micro-batcher waits for more requests once one is
    # queued, before dispatching a partial batch.
    server_max_queue_delay_ms: float = 2.0
    # Per-model bound on queued (not yet executing) requests; submits
    # beyond it raise ServerOverloadedError (backpressure).
    server_queue_capacity: int = 256
    # Default per-request deadline in milliseconds; 0 means no deadline.
    server_default_deadline_ms: float = 0.0
    # How many times a server worker re-runs a batch that failed with a
    # *transient* fault (repro.faults.is_transient) before isolating the
    # batch into per-request executions; 0 disables retries.
    server_retry_limit: int = 2
    # Base backoff between retries; attempt k sleeps k * this.
    server_retry_backoff_ms: float = 1.0
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
    # A (model, operator) pair rescued at least this many times is lowered
    # to relation-centric up-front by the optimizer on the next plan.
    resilience_ledger_threshold: int = 1
    # Cooperative per-stage wall-clock deadline, checked at layer/stripe/
    # stage boundaries; 0 disables the watchdog.
    resilience_stage_timeout_ms: float = 0.0
    # -- circuit breakers (repro.resilience.breaker) ---------------------
    # Per-model (serving front-end) and per-engine (executor) breakers.
    breaker_enabled: bool = True
    # Sliding window of most-recent request outcomes a breaker evaluates.
    breaker_window: int = 8
    # The breaker opens when the window's failure rate reaches this, ...
    breaker_failure_threshold: float = 0.5
    # ... but only once the window holds at least this many outcomes.
    breaker_min_samples: int = 4
    # An open breaker moves to half-open after rejecting this many
    # requests (request-count based, so scenarios replay deterministically
    # regardless of wall-clock speed).
    breaker_cooldown_requests: int = 4
    # In half-open, each arrival becomes the probe with this probability,
    # drawn from the breaker's seeded RNG (1.0 = first arrival probes).
    breaker_probe_probability: float = 1.0
    # -- workload intelligence (repro.telemetry.workload) ----------------
    # Bound on distinct query fingerprints tracked; least-recently-seen
    # shapes are evicted beyond it (backs ``SHOW WORKLOAD``).
    workload_max_fingerprints: int = 512
    # A fresh execution slower than factor * the fingerprint's rolling
    # baseline flags a latency regression ...
    workload_regression_factor: float = 3.0
    # ... once the fingerprint has at least this many baseline calls ...
    workload_regression_warmup: int = 8
    # ... and the absolute slowdown is at least this many milliseconds
    # (suppresses microsecond-scale noise on trivially fast shapes).
    workload_regression_min_ms: float = 5.0
    # -- service-level objectives (repro.telemetry.slo) ------------------
    # Default per-model latency objective applied to models without an
    # explicit ``Database.set_slo`` policy; 0 disables auto-tracking.
    slo_latency_ms: float = 0.0
    # Tolerated bad-request fraction (0.01 = 99% of requests good).
    slo_error_budget: float = 0.01
    # Multi-window burn-rate evaluation: the fast window catches acute
    # incidents, the slow window confirms sustained burns.
    slo_fast_window_s: float = 60.0
    slo_slow_window_s: float = 3600.0
    # Burn rates are 0 until a window holds this many outcomes.
    slo_min_samples: int = 8
    # An objective is "burning" when burn rate reaches this (1.0 spends
    # the error budget exactly as fast as allowed).
    slo_burn_threshold: float = 1.0
    # -- process-parallel serving (repro.cluster) ------------------------
    # Worker *processes* hosting sharded model replicas behind the
    # serving front-end.  0 disables the cluster entirely: serving stays
    # on the in-process thread path and none of the knobs below matter.
    cluster_workers: int = 0
    # How many workers each model is placed on (hot-model replication);
    # clamped to the worker count at placement time.
    cluster_replication: int = 2
    # Virtual nodes per worker on the consistent-hash placement ring.
    cluster_vnodes: int = 32
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
    # multiprocessing start method: "fork", "spawn", or "" to pick fork
    # where the platform offers it (Linux) and spawn elsewhere.
    cluster_start_method: str = ""
    # -- sampling stage profiler (repro.telemetry.profiler) --------------
    # Start the background stage sampler with the Database (opt-in; it
    # can also be toggled at runtime via Database.start_profiler()).
    profiler_enabled: bool = False
    # Sampling period of the profiler's daemon thread.
    profiler_interval_ms: float = 5.0
    # Bound on distinct stage frames tracked; overflow attributes to a
    # catch-all "<other>" frame.
    profiler_max_stages: int = 256
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
    # Fraction of shadow-compared rows allowed to disagree with the
    # serving version (the label-disagreement serving error bound)
    # before the deployment auto-rolls-back.
    deploy_shadow_divergence_threshold: float = 0.02
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
            "default_batch_size",
            "num_cores",
            "telemetry_max_spans",
            "audit_max_records",
            "telemetry_max_events",
            "server_workers",
            "server_max_batch_size",
            "server_queue_capacity",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.server_max_queue_delay_ms < 0:
            raise ConfigError("server_max_queue_delay_ms must be >= 0")
        if self.server_retry_limit < 0:
            raise ConfigError("server_retry_limit must be >= 0")
        if self.server_retry_backoff_ms < 0:
            raise ConfigError("server_retry_backoff_ms must be >= 0")
        if self.faults_seed < 0:
            raise ConfigError("faults_seed must be >= 0")
        if self.resilience_max_recoveries_per_query < 0:
            raise ConfigError("resilience_max_recoveries_per_query must be >= 0")
        if self.resilience_split_floor_rows < 1:
            raise ConfigError("resilience_split_floor_rows must be >= 1")
        if self.resilience_ledger_threshold < 1:
            raise ConfigError("resilience_ledger_threshold must be >= 1")
        if self.resilience_stage_timeout_ms < 0:
            raise ConfigError("resilience_stage_timeout_ms must be >= 0")
        if self.breaker_window < 1:
            raise ConfigError("breaker_window must be >= 1")
        if not 0.0 < self.breaker_failure_threshold <= 1.0:
            raise ConfigError("breaker_failure_threshold must be in (0, 1]")
        if self.breaker_min_samples < 1:
            raise ConfigError("breaker_min_samples must be >= 1")
        if self.breaker_min_samples > self.breaker_window:
            raise ConfigError("breaker_min_samples cannot exceed breaker_window")
        if self.breaker_cooldown_requests < 1:
            raise ConfigError("breaker_cooldown_requests must be >= 1")
        if not 0.0 < self.breaker_probe_probability <= 1.0:
            raise ConfigError("breaker_probe_probability must be in (0, 1]")
        if self.server_default_deadline_ms < 0:
            raise ConfigError("server_default_deadline_ms must be >= 0")
        if self.framework_compute_efficiency <= 0:
            raise ConfigError("framework_compute_efficiency must be positive")
        if self.eviction_policy not in ("lru", "clock", "2q"):
            raise ConfigError(
                f"eviction_policy must be 'lru', 'clock', or '2q', "
                f"got {self.eviction_policy!r}"
            )
        for name in ("workload_max_fingerprints", "workload_regression_warmup",
                     "slo_min_samples", "profiler_max_stages"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.workload_regression_factor <= 1.0:
            raise ConfigError("workload_regression_factor must be > 1")
        if self.workload_regression_min_ms < 0:
            raise ConfigError("workload_regression_min_ms must be >= 0")
        if self.slo_latency_ms < 0:
            raise ConfigError("slo_latency_ms must be >= 0")
        if not 0.0 < self.slo_error_budget <= 1.0:
            raise ConfigError("slo_error_budget must be in (0, 1]")
        if self.slo_fast_window_s <= 0 or self.slo_slow_window_s <= 0:
            raise ConfigError("slo windows must be positive")
        if self.slo_slow_window_s < self.slo_fast_window_s:
            raise ConfigError(
                "slo_slow_window_s must be >= slo_fast_window_s"
            )
        if self.slo_burn_threshold <= 0:
            raise ConfigError("slo_burn_threshold must be positive")
        if self.profiler_interval_ms <= 0:
            raise ConfigError("profiler_interval_ms must be positive")
        if self.cluster_workers < 0:
            raise ConfigError("cluster_workers must be >= 0")
        for name in ("cluster_replication", "cluster_vnodes",
                     "cluster_shm_max_bytes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.cluster_heartbeat_interval_ms <= 0:
            raise ConfigError("cluster_heartbeat_interval_ms must be positive")
        if self.cluster_heartbeat_timeout_ms <= self.cluster_heartbeat_interval_ms:
            raise ConfigError(
                "cluster_heartbeat_timeout_ms must exceed "
                "cluster_heartbeat_interval_ms"
            )
        if self.cluster_request_timeout_ms <= 0:
            raise ConfigError("cluster_request_timeout_ms must be positive")
        if self.cluster_start_method not in ("", "fork", "spawn"):
            raise ConfigError(
                f"cluster_start_method must be '', 'fork', or 'spawn', "
                f"got {self.cluster_start_method!r}"
            )
        if self.lifecycle_drain_timeout_s < 0:
            raise ConfigError("lifecycle_drain_timeout_s must be >= 0")
        for name in ("deploy_canary_min_requests", "deploy_shadow_min_requests"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0 <= self.deploy_shadow_divergence_threshold <= 1:
            raise ConfigError(
                "deploy_shadow_divergence_threshold must be in [0, 1], "
                f"got {self.deploy_shadow_divergence_threshold}"
            )

    @property
    def buffer_pool_pages(self) -> int:
        """Number of page frames the buffer pool can hold."""
        return self.buffer_pool_bytes // self.page_size

    def with_options(self, **overrides: object) -> "SystemConfig":
        """Return a copy with the given fields replaced (validates again)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


DEFAULT_CONFIG = SystemConfig()
