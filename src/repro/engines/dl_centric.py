"""The DL-centric engine (Fig. 1a): offload to an external framework.

Features are pulled out of the RDBMS through the ConnectorX-style
connector (real serialize/deserialize work + a modeled wire time) and the
model runs in an :class:`~repro.dlruntime.runtime.ExternalRuntime` against
that runtime's own memory budget.  This engine is both the paper's
baseline architecture and the representation the unified optimizer can
choose for operators worth offloading.
"""

from __future__ import annotations

import time

import numpy as np

from ..dlruntime.connector import Connector
from ..dlruntime.layers import Model
from ..dlruntime.memory import MemoryBudget
from ..dlruntime.runtime import ExternalRuntime
from ..relational.operators import Operator
from ..telemetry import Telemetry
from .base import EngineResult


class DlCentricEngine:
    """Connector + external runtime, as one engine."""

    def __init__(
        self,
        connector: Connector,
        runtime: ExternalRuntime,
        telemetry: Telemetry | None = None,
    ):
        self.connector = connector
        self.runtime = runtime
        self._telemetry = telemetry or Telemetry(enabled=False)
        self._m_run_seconds = self._telemetry.registry.histogram(
            "engine_run_seconds", "Per-invocation engine time", engine="dl-centric"
        )
        self._m_wire_bytes = self._telemetry.registry.counter(
            "connector_wire_bytes_total", "Bytes moved across the connector"
        )

    def run_from_source(
        self,
        model: Model,
        source: Operator,
        feature_cols: list[str],
    ) -> EngineResult:
        """Extract features from a relational source, then infer."""
        extract = self.connector.extract(source)
        features = extract.feature_matrix(feature_cols)
        return self._run(model, features, extract.serialize_seconds,
                         extract.modeled_wire_seconds, extract.wire_bytes)

    def run_on_blobs(
        self,
        model: Model,
        source: Operator,
        blob_col: str,
        sample_shape: tuple[int, ...],
    ) -> EngineResult:
        """Extract BLOB tensors (e.g. image tiles), reshape, then infer."""
        extract = self.connector.extract(source)
        flat = extract.columns[blob_col.lower()]
        features = flat.reshape((flat.shape[0],) + sample_shape)
        return self._run(model, features, extract.serialize_seconds,
                         extract.modeled_wire_seconds, extract.wire_bytes)

    def run_on_array(
        self, model: Model, features: np.ndarray, budget: MemoryBudget | None = None
    ) -> EngineResult:
        """Inference on an already-extracted array (no transfer accounted),
        charged to ``budget`` instead of the runtime's own if one is given."""
        return self._run(model, features, 0.0, 0.0, 0, budget)

    def _run(
        self,
        model: Model,
        features: np.ndarray,
        transfer_measured: float,
        transfer_modeled: float,
        wire_bytes: int,
        budget: MemoryBudget | None = None,
    ) -> EngineResult:
        handle = self.runtime.load_model(model)
        start = time.perf_counter()
        run = self.runtime.run(handle, features, budget)
        compute_measured = time.perf_counter() - start
        self._m_run_seconds.observe(transfer_measured + compute_measured)
        self._m_wire_bytes.inc(float(wire_bytes))
        self._telemetry.audit.observe_peak("dl-centric", run.peak_memory_bytes)
        # The framework's calibrated compute advantage: the modeled total
        # replaces the measured compute with measured / efficiency.
        compute_discount = run.measured_seconds - run.modeled_seconds
        return EngineResult(
            outputs=run.outputs,
            engine=f"dl-centric:{self.runtime.name}",
            measured_seconds=transfer_measured + compute_measured,
            modeled_extra_seconds=transfer_modeled - compute_discount,
            peak_memory_bytes=run.peak_memory_bytes,
            detail={
                "transfer_measured_s": transfer_measured,
                "transfer_modeled_wire_s": transfer_modeled,
                "compute_measured_s": run.measured_seconds,
                "compute_modeled_s": run.modeled_seconds,
                "wire_bytes": float(wire_bytes),
            },
        )
