"""Ahead-of-time plan compilation (Sec. 2's AoT suggestion).

When a model is loaded into the RDBMS, the compiler pre-plans it for a
grid of candidate batch sizes.  At query time, plan selection is a lookup
(the smallest pre-planned batch size that covers the query's batch), so
the optimizer does not run on the latency-critical path.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from ..config import SystemConfig
from ..dlruntime.layers import Model
from ..errors import PlanError
from ..telemetry import Telemetry
from .ir import InferencePlan
from .optimizer import RuleBasedOptimizer

DEFAULT_BATCH_GRID = (1, 8, 64, 256, 1024, 8192)


@dataclass
class CompiledModel:
    """Pre-planned variants for one model."""

    model: Model
    batch_grid: tuple[int, ...]
    plans: dict[int, InferencePlan]
    #: Recovery-ledger generation this model was compiled under; when the
    #: ledger has advanced past it, the session recompiles so runtime
    #: rescues become up-front lowering decisions.
    ledger_generation: int = 0

    def select(self, batch_size: int) -> InferencePlan:
        """Pick the pre-compiled plan covering ``batch_size``.

        Uses the smallest grid point >= the requested batch (memory
        estimates are monotone in batch size, so the covering plan is
        always safe); falls back to the largest grid plan beyond the grid.
        """
        if batch_size < 1:
            raise PlanError("batch_size must be >= 1")
        idx = bisect.bisect_left(self.batch_grid, batch_size)
        grid_batch = self.batch_grid[min(idx, len(self.batch_grid) - 1)]
        return self.plans[grid_batch]


class AotCompiler:
    """Compiles models against a batch-size grid at load time."""

    def __init__(
        self,
        config: SystemConfig,
        batch_grid: tuple[int, ...] = DEFAULT_BATCH_GRID,
        telemetry: "Telemetry | None" = None,
        ledger=None,
    ):
        if not batch_grid or list(batch_grid) != sorted(set(batch_grid)):
            raise PlanError("batch grid must be a sorted set of batch sizes")
        self._optimizer = RuleBasedOptimizer(config, telemetry=telemetry, ledger=ledger)
        self._ledger = ledger
        self._batch_grid = tuple(batch_grid)

    def compile(self, model: Model) -> CompiledModel:
        plans = {
            batch: self._optimizer.plan_model(model, batch)
            for batch in self._batch_grid
        }
        generation = (
            self._ledger.generation(model.name) if self._ledger is not None else 0
        )
        return CompiledModel(
            model=model,
            batch_grid=self._batch_grid,
            plans=plans,
            ledger_generation=generation,
        )
