"""The hybrid executor: runs the adaptive optimizer's mixed plans.

An :class:`~repro.core.ir.InferencePlan` is a sequence of stages, each
pinned to a representation.  The hybrid executor walks the stages,
dispatching each to its engine and handing the activations across stage
boundaries.  Crossing into or out of a DL-centric stage charges the
modeled connector wire time for the boundary tensors — the cross-system
overhead the paper's unified architecture exists to avoid.

Runtime resilience
------------------

Whole-tensor stages (UDF- and DL-centric) can fail at runtime even when
the optimizer's estimate said they would fit: the estimate can be wrong,
the budget can shrink between planning and execution, or a stage can
blow its cooperative deadline.  Rather than failing the query, the
executor *recovers*:

* a stage whose operators are all expressible as relational vector
  pipelines (MATMUL / RELU / SIGMOID / SOFTMAX) is **re-lowered** and
  re-run through the relation-centric engine, whose stripe-at-a-time
  peak is bounded regardless of operator size;
* any other whole-tensor stage that OOMs is retried with the **batch
  split in halves**, recursively, down to
  ``resilience_split_floor_rows`` — per-sample operators make this safe
  along the batch dimension;
* each rescue is reported to the :class:`~repro.resilience.RecoveryLedger`
  so the optimizer lowers the stage up-front next time instead of paying
  for the failed attempt again;
* per-engine circuit breakers trip after repeated failures, after which
  relowerable stages are **preemptively** routed to the relation engine
  until a half-open probe succeeds.

Recovery is bounded by ``resilience_max_recoveries_per_query``; once the
budget is spent the original error propagates and the stage is audited
as ``gave-up``.  Recovery runs never carry a deadline — a rescue exists
to finish the work, slowly but surely.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..config import SystemConfig
from ..core.ir import VECTOR_SAFE_OPS, InferencePlan, PlanStage, Representation
from ..dlruntime.connector import Connector
from ..dlruntime.layers import Model
from ..dlruntime.memory import MemoryBudget, OutOfMemoryError
from ..dlruntime.runtime import ExternalRuntime
from ..errors import PlanError, StageTimeoutError
from ..faults import NULL_INJECTOR, FaultInjector
from ..resilience import BreakerBoard, Deadline, RecoveryLedger
from ..storage.catalog import Catalog, VersionRecord
from ..telemetry import Telemetry
from .base import EngineResult
from .dl_centric import DlCentricEngine
from .relation_centric import RelationCentricEngine
from .udf_centric import UdfCentricEngine

#: Errors the executor treats as recoverable stage failures.
RECOVERABLE = (OutOfMemoryError, StageTimeoutError)


class EngineCounters(NamedTuple):
    """A snapshot of one executor's counters (see :meth:`HybridExecutor.counters`)."""

    engine_seconds: float  # wall-clock seconds inside engines
    stage_runs: dict[Representation, int]  # plan stages run, by representation
    recoveries: dict[str, int]  # stage rescues, by outcome (``gave-up`` too)


class HybridExecutor:
    """Executes mixed-representation plans over in-database data."""

    def __init__(
        self,
        catalog: Catalog,
        config: SystemConfig,
        db_budget: MemoryBudget | None = None,
        runtime_flavor: str = "tensorflow-sim",
        telemetry: Telemetry | None = None,
        injector: FaultInjector | None = None,
        ledger: RecoveryLedger | None = None,
    ):
        self.catalog = catalog
        self.config = config
        self.telemetry = telemetry or Telemetry(enabled=False)
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.ledger = ledger
        self.breakers = (
            BreakerBoard.from_config(config) if config.breaker_enabled else None
        )
        if self.breakers is not None:
            self.breakers.recorder = self.telemetry.events
        registry = self.telemetry.registry
        self._m_stage_runs = {
            rep: registry.counter(
                "engine_stage_runs_total",
                "Plan stages executed, by representation",
                representation=rep.value,
            )
            for rep in Representation
        }
        self._m_engine_seconds = registry.counter(
            "engine_measured_seconds_total", "Wall-clock seconds inside engines"
        )
        self._m_predict_batches = registry.counter(
            "predict_batches_total", "Inference plan executions"
        )
        self._m_predict_rows = registry.counter(
            "predict_rows_total", "Rows pushed through inference plans"
        )
        self._m_recoveries = {
            outcome: registry.counter(
                "engine_recoveries_total",
                "Stage rescues by the runtime resilience layer",
                outcome=outcome,
            )
            for outcome in ("relowered", "split", "preemptive", "gave-up")
        }
        self.db_budget = (
            db_budget
            if db_budget is not None
            else MemoryBudget(config.dl_memory_limit_bytes, "db")
        )
        self.dl_budget = MemoryBudget(config.dl_memory_limit_bytes, "dl-runtime")
        self.udf_engine = UdfCentricEngine(
            self.db_budget, eager_free=False, telemetry=self.telemetry
        )
        self.relation_engine = RelationCentricEngine(
            catalog, config, telemetry=self.telemetry
        )
        self.dl_engine = DlCentricEngine(
            Connector(config.connector),
            ExternalRuntime(runtime_flavor, self.dl_budget),
            telemetry=self.telemetry,
        )

    def counters(self) -> EngineCounters:
        """The executor's counters as they read now."""
        return EngineCounters(
            self._m_engine_seconds.value,
            {rep: int(c.value) for rep, c in self._m_stage_runs.items()},
            {outcome: int(c.value) for outcome, c in self._m_recoveries.items()},
        )

    def execute(
        self,
        plan: InferencePlan,
        x: np.ndarray,
        model_info: VersionRecord,
        dl_budget: MemoryBudget | None = None,
    ) -> EngineResult:
        """Run a plan over an input array; returns combined accounting.

        ``dl_budget`` replaces the DL runtime's own budget for this call.
        """
        dl_budget = dl_budget if dl_budget is not None else self.dl_budget
        current = np.asarray(x, dtype=np.float64)
        measured = 0.0
        modeled_extra = 0.0
        peak = 0
        detail: dict[str, float] = {}
        outputs = current
        tracer = self.telemetry.tracer
        profiler = self.telemetry.profiler
        # Forced plans are the paper's fixed-architecture baselines: a
        # forced whole-tensor plan that OOMs is the measurement (the OOM
        # cells of Table 3), so rescue only adaptive plans.
        recoveries_left = (
            self.config.resilience_max_recoveries_per_query
            if self.config.resilience_enabled and plan.forced is None
            else 0
        )
        node_base = 0
        with tracer.span(
            f"predict:{plan.model.name}",
            category="engine",
            rows=int(current.shape[0]),
            stages=len(plan.stages),
        ):
            for i, stage in enumerate(plan.stages):
                with tracer.span(
                    f"stage{i}:{stage.representation.value}", category="engine"
                ) as stage_span:
                    # Fires before the stage touches shared state, so an
                    # injected error aborts the whole predict cleanly and
                    # a retry re-runs the plan from the original input.
                    self.injector.fire(
                        "engine.stage",
                        model=plan.model.name,
                        stage=i,
                        representation=stage.representation.value,
                    )
                    # Mark this worker thread's current stage for the
                    # sampling profiler (near-free while it is stopped).
                    profiler.enter(
                        f"{plan.model.name};stage{i}:"
                        f"{stage.representation.value}"
                    )
                    try:
                        result, recovery, recoveries_left = self._run_stage_guarded(
                            stage,
                            current,
                            model_info,
                            plan,
                            stage_index=i,
                            node_base=node_base,
                            recoveries_left=recoveries_left,
                            dl_budget=dl_budget,
                        )
                    except RECOVERABLE as exc:
                        # Recovery budget spent (or disabled): audit the
                        # stage as gave-up, then let the error propagate.
                        self._m_recoveries["gave-up"].inc()
                        self.telemetry.events.emit(
                            "stage.gave_up",
                            trace_id=tracer.current_trace_id(),
                            model=plan.model.name,
                            stage=i,
                            representation=stage.representation.value,
                            error=type(exc).__name__,
                        )
                        self.telemetry.audit.record_stage(
                            model=plan.model.name,
                            stage_index=i,
                            representation=stage.representation.value,
                            ops=stage.ops,
                            rows=int(current.shape[0]),
                            elapsed_seconds=0.0,
                            estimated_bytes=stage.estimated_bytes,
                            actual_peak_bytes=self._stage_peak(stage, dl_budget),
                            threshold_bytes=plan.threshold_bytes,
                            recovery="gave-up",
                        )
                        raise
                    finally:
                        profiler.exit()
                    stage_span.set(
                        engine=result.engine,
                        measured_seconds=result.measured_seconds,
                    )
                    if recovery:
                        stage_span.set(recovery=recovery)
                        self.telemetry.events.emit(
                            "stage.rescued",
                            trace_id=tracer.current_trace_id(),
                            model=plan.model.name,
                            stage=i,
                            representation=stage.representation.value,
                            recovery=recovery,
                        )
                self._m_stage_runs[stage.representation].inc()
                # Close the optimizer's loop: pair the estimate that routed
                # this stage with the peak the engine actually reached.
                self.telemetry.audit.record_stage(
                    model=plan.model.name,
                    stage_index=i,
                    representation=stage.representation.value,
                    ops=stage.ops,
                    rows=int(current.shape[0]),
                    elapsed_seconds=result.measured_seconds,
                    estimated_bytes=stage.estimated_bytes,
                    actual_peak_bytes=result.peak_memory_bytes,
                    threshold_bytes=plan.threshold_bytes,
                    recovery=recovery,
                )
                measured += result.measured_seconds
                modeled_extra += result.modeled_extra_seconds
                peak = max(peak, result.peak_memory_bytes)
                for key, value in result.detail.items():
                    detail[f"stage{i}.{key}"] = value
                detail[f"stage{i}.representation"] = float(
                    list(Representation).index(stage.representation)
                )
                if recovery:
                    detail[f"stage{i}.recovery"] = 1.0
                outputs = result.outputs
                current = outputs
                node_base += len(stage.nodes)
        self._m_predict_batches.inc()
        self._m_predict_rows.inc(float(x.shape[0]))
        self._m_engine_seconds.inc(measured)
        return EngineResult(
            outputs=outputs,
            engine="hybrid",
            measured_seconds=measured,
            modeled_extra_seconds=modeled_extra,
            peak_memory_bytes=peak,
            detail=detail,
        )

    # -- resilience ---------------------------------------------------------

    def _run_stage_guarded(
        self,
        stage: PlanStage,
        x: np.ndarray,
        model_info: VersionRecord,
        plan: InferencePlan,
        stage_index: int,
        node_base: int,
        recoveries_left: int,
        dl_budget: MemoryBudget,
    ) -> tuple[EngineResult, str, int]:
        """Run one stage with breaker routing and failure recovery.

        Returns ``(result, recovery_tag, recoveries_left)`` where the tag
        is ``""`` when the stage ran as planned.  Raises the original
        engine error once the per-query recovery budget is exhausted.
        """
        forced = plan.forced is not None
        breaker = None
        if self.breakers is not None and not forced:
            breaker = self.breakers.get(f"engine:{stage.representation.value}")
        relowerable = not forced and self._can_relower(stage, x)
        if (
            breaker is not None
            and relowerable
            and self.config.resilience_enabled
        ):
            allowed, _state = breaker.allow()
            if not allowed:
                # Breaker open for this engine: route around it instead of
                # attempting a run we expect to fail.  Half-open probes come
                # back as allowed=True and take the normal path below.
                result = self._relower(stage, x, model_info)
                self._note_rescue(plan, stage, node_base)
                self._m_recoveries["preemptive"].inc()
                return result, "preemptive", recoveries_left
        deadline = Deadline.for_stage(
            self.config, f"{plan.model.name}:stage{stage_index}"
        )
        checkpoint = deadline.checkpoint() if deadline is not None else None
        try:
            result = self._run_stage(stage, x, model_info, dl_budget, checkpoint)
        except RECOVERABLE as exc:
            if breaker is not None:
                breaker.record_failure()
            if recoveries_left <= 0 or not self.config.resilience_enabled:
                raise
            if relowerable:
                result = self._relower(stage, x, model_info)
                self._note_rescue(plan, stage, node_base)
                self._m_recoveries["relowered"].inc()
                return result, "relowered", recoveries_left - 1
            if isinstance(exc, OutOfMemoryError) and x.shape[0] > 1:
                result, pieces = self._split_stage(stage, x, model_info, dl_budget)
                self._note_rescue(plan, stage, node_base)
                self._m_recoveries["split"].inc()
                return result, f"split({pieces})", recoveries_left - 1
            raise
        if breaker is not None:
            breaker.record_success()
        return result, "", recoveries_left

    def _can_relower(self, stage: PlanStage, x: np.ndarray) -> bool:
        """True when the stage can be re-run as a relational vector pipeline."""
        return (
            stage.representation is not Representation.RELATION_CENTRIC
            and x.ndim == 2
            and all(node.op in VECTOR_SAFE_OPS for node in stage.nodes)
        )

    def _relower(
        self, stage: PlanStage, x: np.ndarray, model_info: VersionRecord
    ) -> EngineResult:
        """Re-run a whole-tensor stage through the relation engine."""
        return self.relation_engine.run_vector_stage(stage.layers, x, model_info)

    def _split_stage(
        self, stage: PlanStage, x: np.ndarray, model_info: VersionRecord, dl_budget
    ) -> tuple[EngineResult, int]:
        """Retry an OOMed stage on recursively halved batches.

        The full batch already failed, so start from the halves; each
        half that still OOMs splits again (:meth:`_run_split`) until the
        configured floor, below which the error propagates (the operator
        itself, not the batch, is what does not fit).
        """
        mid = x.shape[0] // 2
        left, pieces_l = self._run_split(stage, x[:mid], model_info, dl_budget)
        right, pieces_r = self._run_split(stage, x[mid:], model_info, dl_budget)
        return _merge_results(left, right), pieces_l + pieces_r

    def _run_split(
        self, stage: PlanStage, chunk: np.ndarray, model_info: VersionRecord, dl_budget
    ) -> tuple[EngineResult, int]:
        try:
            return self._run_stage(stage, chunk, model_info, dl_budget), 1
        except OutOfMemoryError:
            if chunk.shape[0] <= max(1, self.config.resilience_split_floor_rows):
                raise
            return self._split_stage(stage, chunk, model_info, dl_budget)

    def _note_rescue(
        self, plan: InferencePlan, stage: PlanStage, node_base: int
    ) -> None:
        if self.ledger is None:
            return
        for offset, node in enumerate(stage.nodes):
            self.ledger.note_rescue(
                plan.model.name, node_base + offset, op=node.op.value
            )

    def _stage_peak(self, stage: PlanStage, dl_budget: MemoryBudget) -> int:
        """Best-effort peak bytes for a stage that failed outright."""
        if stage.representation is Representation.UDF_CENTRIC:
            return self.db_budget.peak
        if stage.representation is Representation.DL_CENTRIC:
            return dl_budget.peak
        return self.relation_engine.budget.peak

    # -- dispatch -----------------------------------------------------------

    def _run_stage(
        self,
        stage: PlanStage,
        x: np.ndarray,
        model_info: VersionRecord,
        dl_budget: MemoryBudget,
        checkpoint=None,
    ) -> EngineResult:
        if stage.representation is Representation.UDF_CENTRIC:
            return self.udf_engine.run_layers(stage.layers, x, checkpoint=checkpoint)
        if stage.representation is Representation.RELATION_CENTRIC:
            return self.relation_engine.run_vector_stage(
                stage.layers, x, model_info, checkpoint=checkpoint
            )
        if stage.representation is Representation.DL_CENTRIC:
            return self._run_dl_stage(stage, x, dl_budget)
        raise PlanError(f"stage has no representation assigned: {stage.describe()}")

    def _run_dl_stage(
        self, stage: PlanStage, x: np.ndarray, budget: MemoryBudget
    ) -> EngineResult:
        """Offload a stage: pay modeled wire cost both ways, then run."""
        stage_model = Model("offload", stage.layers, input_shape=tuple(x.shape[1:]))
        result = self.dl_engine.run_on_array(stage_model, x, budget)
        boundary_bytes = x.nbytes + result.outputs.nbytes
        wire = self.config.connector.wire_time(boundary_bytes, x.shape[0])
        result.modeled_extra_seconds += wire
        result.detail["boundary_wire_s"] = wire
        return result


def _merge_results(left: EngineResult, right: EngineResult) -> EngineResult:
    """Combine two half-batch results into one stage result."""
    return EngineResult(
        outputs=np.concatenate([left.outputs, right.outputs], axis=0),
        engine=left.engine,
        measured_seconds=left.measured_seconds + right.measured_seconds,
        modeled_extra_seconds=left.modeled_extra_seconds
        + right.modeled_extra_seconds,
        peak_memory_bytes=max(left.peak_memory_bytes, right.peak_memory_bytes),
    )
