"""The UDF-centric engine (Fig. 1b).

The whole model (or a fused sub-sequence of its layers) runs as one UDF
*inside* the database process, directly over rows pulled from the buffer
pool — no cross-system transfer.  The trade-off the paper measures: a
naive single UDF keeps every intermediate activation alive until it
returns (``eager_free=False``), so its peak memory is the *sum* of the
activations, which is why the UDF-centric column of Table 3 OOMs before
TensorFlow does.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..dlruntime.layers import Layer, Model
from ..dlruntime.memory import MemoryBudget
from ..telemetry import Telemetry
from .base import EngineResult


class UdfCentricEngine:
    """Runs model layers as in-process UDFs against a DB memory budget."""

    def __init__(
        self,
        budget: MemoryBudget,
        eager_free: bool = False,
        telemetry: Telemetry | None = None,
    ):
        self.budget = budget
        self.eager_free = eager_free
        self._telemetry = telemetry or Telemetry(enabled=False)
        self._m_run_seconds = self._telemetry.registry.histogram(
            "engine_run_seconds", "Per-invocation engine time", engine="udf-centric"
        )

    def run_layers(
        self,
        layers: Sequence[Layer],
        x: np.ndarray,
        checkpoint=None,
    ) -> EngineResult:
        """Execute a fused layer sequence over one input array.

        ``checkpoint`` (if given) runs before every layer — the
        executor's cooperative stage-deadline hook.
        """
        stage_model = _as_model(layers, x)
        self.budget.reset_peak()
        start = time.perf_counter()
        outputs = stage_model.forward(
            x, budget=self.budget, eager_free=self.eager_free, checkpoint=checkpoint
        )
        measured = time.perf_counter() - start
        self._m_run_seconds.observe(measured)
        self._telemetry.audit.observe_peak("udf-centric", self.budget.peak)
        return EngineResult(
            outputs=outputs,
            engine="udf-centric",
            measured_seconds=measured,
            peak_memory_bytes=self.budget.peak,
        )

    def run_model(self, model: Model, x: np.ndarray) -> EngineResult:
        """Whole-model-as-one-UDF execution (the small-model fast path)."""
        return self.run_layers(model.layers, x)


def _as_model(layers: Sequence[Layer], x: np.ndarray) -> Model:
    """Wrap a layer slice in a throwaway Model for shape-checked forward."""
    input_shape = tuple(x.shape[1:])
    return Model("stage", list(layers), input_shape=input_shape)
