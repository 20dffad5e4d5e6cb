"""Process-parallel model serving (cluster tier).

The thread-based server keeps every model in one Python process; on
multi-core hosts the GIL caps the relation-centric engine's throughput
no matter how many server threads run.  This package shards models
across worker *processes* instead:

* :mod:`~repro.cluster.shm` — shared-memory tensor transport (numpy
  views over per-worker slots reused across requests; no payload
  pickling on the hot path);
* :mod:`~repro.cluster.placement` — consistent-hash model placement
  with replication, keyed off the co-partitioning chunk layout;
* :mod:`~repro.cluster.worker` — the child-process serving loop and
  its parent-side handle;
* :mod:`~repro.cluster.router` — health-aware replica choice
  (liveness, breakers, heartbeat staleness, SLO burn);
* :mod:`~repro.cluster.pool` — the orchestrator tying them together,
  with crash detection, rerouting, and respawn.

Opt in with ``Database.serve(cluster_workers=N)`` or the
``cluster_workers`` config field (the other ``cluster_*`` fields tune
heartbeats, timeouts and the shared-memory size cap);
``cluster_workers=0`` (the default) keeps the pure thread path
byte-for-byte unchanged.
"""

from .placement import Placement, shard_key
from .pool import CLUSTER_OUTCOMES, ClusterPool
from .router import ClusterRouter
from .shm import EMPTY, INLINE, SHM, TensorRef, read_array, release, share_array, write_into
from .worker import DEAD, READY, STARTING, STOPPED, WorkerHandle

__all__ = [
    "CLUSTER_OUTCOMES",
    "ClusterPool",
    "ClusterRouter",
    "DEAD",
    "EMPTY",
    "INLINE",
    "Placement",
    "READY",
    "SHM",
    "STARTING",
    "STOPPED",
    "TensorRef",
    "WorkerHandle",
    "read_array",
    "release",
    "shard_key",
    "share_array",
    "write_into",
]
