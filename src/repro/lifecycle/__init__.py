"""Online model lifecycle: versioned catalog, deployments, drain.

``repro.lifecycle`` decouples *catalog changes* from *serving traffic*:

- :class:`ModelCatalog` — copy-on-write, generation-stamped snapshots;
  readers pin one snapshot per call and never block on a deploy.
- :class:`DeploymentController` — the ``preparing -> shadowing -> canary
  -> promoted | rolled_back`` state machine behind ``DEPLOY MODEL``,
  ``ROLLBACK MODEL`` and ``SHOW DEPLOYMENTS``, with per-version circuit
  breakers and auto-rollback on breaker trip, SLO fast-burn, or shadow
  divergence.
- :mod:`~repro.lifecycle.routing` — deterministic fingerprint-hashed
  canary splits and mirrored shadow execution with stable-version
  fallback.
"""

from .catalog import (
    CatalogSnapshot,
    ModelCatalog,
    ModelEntry,
    VersionRecord,
)
from .controller import (
    CANARY,
    PREPARING,
    PROMOTED,
    ROLLED_BACK,
    SHADOWING,
    Deployment,
    DeploymentController,
    DeploymentRow,
)
from .routing import canary_mask, routed_predict, routing_hashes

__all__ = [
    "CatalogSnapshot",
    "ModelCatalog",
    "ModelEntry",
    "VersionRecord",
    "Deployment",
    "DeploymentController",
    "DeploymentRow",
    "PREPARING",
    "SHADOWING",
    "CANARY",
    "PROMOTED",
    "ROLLED_BACK",
    "routing_hashes",
    "canary_mask",
    "routed_predict",
]
