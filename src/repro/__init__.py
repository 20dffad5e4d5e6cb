"""repro — serving deep learning models from a relational database.

A full reproduction of "Serving Deep Learning Models from Relational
Databases" (EDBT 2024): an embedded RDBMS whose query engine adaptively
executes model inference in DL-centric, UDF-centric, or relation-centric
form, with inference-result caching, unified resource management, and
storage co-optimization.

Quickstart::

    from repro import Database
    from repro.models import fraud_fc_256

    db = Database()
    db.execute("CREATE TABLE tx (id INT, f0 DOUBLE, f1 DOUBLE, ...)")
    db.register_model(fraud_fc_256(), name="fraud")
    cur = db.execute("SELECT id, PREDICT(fraud, f0, f1, ...) FROM tx")
"""

from .config import DEFAULT_CONFIG, SystemConfig, gb, mb
from .core.ir import InferencePlan, Representation
from .dlruntime.memory import MemoryBudget
from .errors import (
    CircuitOpenError,
    CorruptPageError,
    DeadlineExceededError,
    DeploymentError,
    InjectedFaultError,
    NoServableVersionError,
    OutOfMemoryError,
    ReproError,
    ServerClosedError,
    ServerError,
    ServerOverloadedError,
    SlaViolationError,
    SqlError,
    StageTimeoutError,
    StorageError,
)
from .faults import FaultInjector, FaultPlan, FaultSpec
from .health import HealthReport
from .lifecycle import Deployment, DeploymentController, ModelCatalog
from .resilience import BreakerBoard, CircuitBreaker, RecoveryLedger
from .server import ModelServer, RequestFuture, RequestState
from .session import Cursor, Database

__version__ = "1.0.0"

__all__ = [
    "Database",
    "Cursor",
    "SystemConfig",
    "DEFAULT_CONFIG",
    "mb",
    "gb",
    "MemoryBudget",
    "Representation",
    "InferencePlan",
    "ModelServer",
    "RequestFuture",
    "RequestState",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "ReproError",
    "OutOfMemoryError",
    "StorageError",
    "CorruptPageError",
    "InjectedFaultError",
    "SqlError",
    "SlaViolationError",
    "DeploymentError",
    "NoServableVersionError",
    "ModelCatalog",
    "Deployment",
    "DeploymentController",
    "ServerError",
    "ServerOverloadedError",
    "ServerClosedError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "StageTimeoutError",
    "HealthReport",
    "RecoveryLedger",
    "CircuitBreaker",
    "BreakerBoard",
    "__version__",
]
