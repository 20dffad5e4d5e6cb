"""The rule-based adaptive optimizer (Sec. 7.1).

For each lowered operator the optimizer estimates memory as
``input + parameters + output`` and compares it against the configurable
threshold (2 GB in the paper, megabytes at our scale):

* over the threshold → ``RELATION_CENTRIC`` (join + aggregation over
  tensor blocks, bounded memory, spills through the buffer pool);
* under it → ``UDF_CENTRIC`` (fused into an in-process UDF).

Contiguous same-representation operators are fused into one stage, so a
model whose every operator fits becomes a single whole-model UDF — exactly
the behaviour the paper reports for the small Table 1/2 models.

When a :class:`~repro.resilience.RecoveryLedger` is wired in, the
estimate-based rule gains a feedback loop: an operator the executor has
had to rescue at runtime (OOM or deadline, despite an under-threshold
estimate) is lowered to relation-centric *up-front* on the next plan,
so the failed attempt is never paid for twice.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..dlruntime.layers import Model
from ..errors import PlanError
from ..telemetry import Telemetry, get_logger
from .cost import node_memory_requirement
from .ir import (
    VECTOR_SAFE_OPS,
    InferencePlan,
    LinAlgNode,
    PlanStage,
    Representation,
)
from .lowering import lower_model

log = get_logger("optimizer")


class RuleBasedOptimizer:
    """Assigns representations per operator and fuses stages."""

    def __init__(
        self,
        config: SystemConfig,
        telemetry: Telemetry | None = None,
        ledger=None,
    ):
        self._config = config
        self._telemetry = telemetry or Telemetry(enabled=False)
        #: Optional :class:`~repro.resilience.RecoveryLedger` — runtime
        #: rescues recorded there lower the rescued operator up-front.
        self._ledger = ledger
        registry = self._telemetry.registry
        self._m_decisions = {
            rep: registry.counter(
                "optimizer_decisions_total",
                "Per-operator representation decisions at plan time",
                representation=rep.value,
            )
            for rep in Representation
        }
        self._m_plans = registry.counter(
            "optimizer_plans_total", "Inference plans produced"
        )

    @property
    def threshold_bytes(self) -> int:
        return self._config.memory_threshold_bytes

    def plan_model(
        self,
        model: Model,
        batch_size: int,
        force: Representation | str | None = None,
    ) -> InferencePlan:
        """Produce an :class:`InferencePlan` for one model invocation.

        ``force`` pins every operator to one representation — used to run
        the paper's fixed-architecture baselines through the same executor.
        """
        if batch_size < 1:
            raise PlanError("batch_size must be >= 1")
        if isinstance(force, str):
            force = Representation.parse(force)
        with self._telemetry.tracer.span(
            f"optimize:{model.name}", category="optimizer", batch_size=batch_size
        ):
            nodes = lower_model(model)
            notes: list[str] = []
            self._assign_representations(nodes, model, batch_size, force, notes)
            # Decisions are counted once per operator, after every
            # assignment pass has run — a node reassigned by a subclass
            # (e.g. UDF -> DL offload) must not be billed to both
            # representations.
            for node in nodes:
                self._m_decisions[node.representation].inc()
            self._m_plans.inc()
            return InferencePlan(
                model=model,
                batch_size=batch_size,
                stages=fuse_stages(nodes),
                threshold_bytes=self.threshold_bytes,
                notes=notes,
                forced=force,
            )

    def _assign_representations(
        self,
        nodes: list[LinAlgNode],
        model: Model,
        batch_size: int,
        force: Representation | None,
        notes: list[str],
    ) -> None:
        """Set each node's representation (and its memory estimate)."""
        for i, node in enumerate(nodes):
            node.estimated_bytes = node_memory_requirement(node, batch_size)
            if force is not None:
                node.representation = force
                continue
            if (
                self._ledger is not None
                and node.op in VECTOR_SAFE_OPS
                and self._ledger.should_lower(model.name, i)
            ):
                node.representation = Representation.RELATION_CENTRIC
                notes.append(
                    f"{node.op.value} rescued "
                    f"{self._ledger.rescue_count(model.name, i)}x at runtime "
                    "-> relation-centric (recovery ledger)"
                )
                continue
            if node.estimated_bytes > self.threshold_bytes:
                node.representation = Representation.RELATION_CENTRIC
                notes.append(
                    f"{node.op.value} needs {node.estimated_bytes:,} bytes "
                    f"(> threshold {self.threshold_bytes:,}) -> relation-centric"
                )
            else:
                node.representation = Representation.UDF_CENTRIC
            log.debug(
                "model=%s batch=%d op=%s memory=%d threshold=%d -> %s",
                model.name,
                batch_size,
                node.op.value,
                node.estimated_bytes,
                self.threshold_bytes,
                node.representation.value,
            )


class DeviceAwareOptimizer(RuleBasedOptimizer):
    """The memory rule plus Sec. 3's device-allocation decision.

    After the threshold rule assigns UDF-centric vs relation-centric,
    every UDF-centric operator is priced on each available device with
    the producer-transfer-consumer model; operators whose best device is
    an accelerator are re-assigned ``DL_CENTRIC`` (offloaded), since GPU
    execution happens in the external runtime.  Relation-centric
    assignments are never overridden — they exist precisely because the
    operator does not fit any single device.
    """

    def __init__(
        self,
        config: SystemConfig,
        devices: list | None = None,
        telemetry: Telemetry | None = None,
    ):
        super().__init__(config, telemetry=telemetry)
        from ..dlruntime.device import cpu_device
        from ..resources.allocator import DeviceAllocator

        self._devices = devices if devices else [cpu_device()]
        self._allocator = DeviceAllocator(self._devices)

    def _assign_representations(
        self,
        nodes: list[LinAlgNode],
        model: Model,
        batch_size: int,
        force: Representation | None,
        notes: list[str],
    ) -> None:
        super()._assign_representations(nodes, model, batch_size, force, notes)
        if force is not None:
            return
        for node in nodes:
            if node.representation is not Representation.UDF_CENTRIC:
                continue
            try:
                decision = self._allocator.place(node, batch_size)
            except Exception:  # no device fits: keep the in-DB assignment
                continue
            if decision.device.kind == "gpu":
                node.representation = Representation.DL_CENTRIC
                notes.append(
                    f"{node.op.value} offloaded to {decision.device.name} "
                    f"(modeled {decision.estimates[decision.device.name]:.2e}s "
                    "beats CPU)"
                )
                log.debug(
                    "model=%s op=%s offloaded to %s -> dl-centric",
                    model.name,
                    node.op.value,
                    decision.device.name,
                )


def fuse_stages(nodes: list[LinAlgNode]) -> list[PlanStage]:
    """Group consecutive nodes with equal representations into stages."""
    if not nodes:
        raise PlanError("cannot build a plan from zero operators")
    stages: list[PlanStage] = []
    current: list[LinAlgNode] = [nodes[0]]
    for node in nodes[1:]:
        if node.representation is current[-1].representation:
            current.append(node)
        else:
            stages.append(PlanStage(current[-1].representation, current))
            current = [node]
    stages.append(PlanStage(current[-1].representation, current))
    return stages
