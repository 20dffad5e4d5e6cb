"""The relation-centric engine (Fig. 1c).

Weights live as tensor-block relations inside the RDBMS; a matmul executes
as ``HashJoin(input blocks, weight blocks) → multiply UDF → SUM_BLOCK
aggregation`` through the ordinary relational operators and the buffer
pool.  Inputs are processed in *row stripes* so that peak memory is one
stripe of input plus one stripe of output, regardless of operator size —
the property that lets this engine complete the Table 3 workloads that
OOM every whole-tensor engine.  A stripe is one block row: its blocks are
``stripe rows × side``, so each weight block joins one input block.

Weight tables keep the stored ``tensor_block_rows × tensor_block_cols``
blocks; a vector stage multiplies on square *compute blocks* of side
``f × tensor_block_cols``, assembled from the stored blocks as the weight
scan streams (:func:`~repro.tensor.linalg.reblock`), and kept resident in
the buffer pool for the next call.  ``f`` is picked per stage call from
the memory the stage may use (:func:`~repro.core.cost.compute_block_factor`);
at ``f = 1`` the compute blocks are the stored blocks, decoded once.
Convolution stages multiply the stored blocks as the scan reads them.

A vector stage's operator tree depends on the version, its layers and
``f`` only, so the engine builds it once per such triple and each call
binds its stripes into the tree's input scan.  The engine runs one stage
at a time: the trees and the stage's budget are shared state.

Two stage shapes cover the paper's models:

* vector stages (``(batch, features)`` inputs) chain MATMUL / RELU /
  SIGMOID / SOFTMAX pipelines stripe by stripe;
* convolution stages apply the spatial (im2col) rewrite per image and
  write the output feature map *into a result table*, because for
  workloads like LandCover the output itself dwarfs memory (a caller
  that names no table gets the outputs back from a scratch one).
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from typing import NamedTuple

import numpy as np

from ..config import SystemConfig
from ..core.cost import compute_block_bytes, compute_block_factor
from ..dlruntime.layers import Conv2d, Linear, ReLU, Sigmoid, Softmax
from ..dlruntime.memory import MemoryBudget
from ..errors import PlanError
from ..models.store import weight_block_table
from ..relational.operators import Operator, SeqScan
from ..storage.catalog import Catalog, VersionRecord, TableInfo
from ..telemetry import Telemetry
from ..tensor.block import block_array, block_table_schema
from ..tensor.blocked import BlockedMatrix
from ..tensor.im2col import im2col
from ..tensor.linalg import (
    BoundBlockScan,
    bias_add_pipeline,
    block_scan_from_matrix,
    block_scan_from_table,
    drain_to_matrix,
    elementwise_pipeline,
    matmul_pipeline,
    prefix_blocks,
    reblock,
)
from .base import EngineResult

_scratch_tables = itertools.count()


class _PreparedRun(NamedTuple):
    """A Softmax-free run's operator tree, the scan its stripes are bound
    to, and the weight tables it reads (a re-stored table rebuilds it)."""

    tree: Operator
    stripes: BoundBlockScan
    tables: tuple[TableInfo, ...]


class RelationCentricEngine:
    """Executes lowered layer chains as relational block pipelines."""

    def __init__(
        self,
        catalog: Catalog,
        config: SystemConfig,
        budget: MemoryBudget | None = None,
        stripe_rows: int | None = None,
        telemetry: Telemetry | None = None,
    ):
        if config.tensor_block_rows != config.tensor_block_cols:
            raise PlanError(
                "relation-centric execution chains matmuls, which requires "
                "square tensor blocks (block rows == block cols)"
            )
        self.catalog = catalog
        self.config = config
        self.budget = budget if budget is not None else MemoryBudget(None, "relation")
        self.stripe_rows = (
            stripe_rows if stripe_rows is not None else config.tensor_block_rows * 8
        )
        self._telemetry = telemetry or Telemetry(enabled=False)
        self._m_run_seconds = self._telemetry.registry.histogram(
            "engine_run_seconds", "Per-invocation engine time", engine="relation-centric"
        )
        self._m_stripes = self._telemetry.registry.counter(
            "relation_stripes_total", "Row stripes processed block-wise"
        )
        # Stages share the budget, the prepared trees and (conv stages)
        # the catalog's result tables: one runs at a time.
        self._lock = threading.Lock()
        # model → (version name, run's layers, side) → its prepared run;
        # entries die with the model, or with this engine on a config change.
        self._runs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @property
    def _block_shape(self) -> tuple[int, int]:
        return (self.config.tensor_block_rows, self.config.tensor_block_cols)

    # -- vector stages ------------------------------------------------------

    def run_vector_stage(
        self,
        layers: list,
        x: np.ndarray,
        model_info: VersionRecord,
        checkpoint=None,
    ) -> EngineResult:
        """Chain MATMUL/RELU/SIGMOID/SOFTMAX pipelines over row stripes.

        The stage multiplies on square compute blocks of side ``f`` times
        the stored block side, with ``f`` from
        :func:`~repro.core.cost.compute_block_factor`; their footprint is
        borrowed from the budget for every stripe.  ``checkpoint`` (if
        given) runs before every stripe — the executor's cooperative
        stage-deadline hook.
        """
        if x.ndim != 2:
            raise PlanError(
                f"vector stage expects (batch, features) input, got {x.shape}"
            )
        with self._lock:
            return self._run_vector_stage(layers, x, model_info, checkpoint)

    def _run_vector_stage(self, layers, x, model_info, checkpoint) -> EngineResult:
        self.budget.reset_peak()
        factor, footprint = self._compute_blocks(layers, x)
        side = factor * self.config.tensor_block_cols
        out_features = _stage_output_features(layers, x.shape[1])
        outputs = np.empty((x.shape[0], out_features))
        start = time.perf_counter()
        for lo in range(0, x.shape[0], self.stripe_rows):
            if checkpoint is not None:
                checkpoint()
            stripe = x[lo : lo + self.stripe_rows]
            with self.budget.borrow(stripe.nbytes, tag="stripe-in"):
                with self.budget.borrow(footprint, tag="compute-blocks"):
                    result = self._run_stripe(layers, stripe, model_info, side)
                with self.budget.borrow(result.nbytes, tag="stripe-out"):
                    outputs[lo : lo + stripe.shape[0]] = result
            self._m_stripes.inc()
        measured = time.perf_counter() - start
        self._m_run_seconds.observe(measured)
        self._telemetry.audit.observe_peak("relation-centric", self.budget.peak)
        return EngineResult(
            outputs=outputs,
            engine="relation-centric",
            measured_seconds=measured,
            peak_memory_bytes=self.budget.peak,
        )

    def _compute_blocks(self, layers: list, x: np.ndarray) -> tuple[int, int]:
        """The stage's compute-block factor and the bytes its blocks hold.

        The memory they may take is the optimizer's threshold, capped by
        the first (largest) stripe's own size, so a stripe's peak stays
        within two stripes, and by what a limited budget has left after
        that stripe.
        """
        rows = min(self.stripe_rows, x.shape[0])
        stripe_bytes = rows * x.shape[1] * x.itemsize
        memory = min(
            self.config.memory_threshold_bytes,
            stripe_bytes,
            self.budget.limit - self.budget.used - stripe_bytes,
        )
        shapes = [
            (layer.in_features, layer.out_features)
            for layer in layers
            if isinstance(layer, Linear)
        ]
        factor = compute_block_factor(
            shapes, rows, self.config.tensor_block_cols, memory
        )
        if factor == 1:
            return 1, 0
        side = factor * self.config.tensor_block_cols
        widest_out = max(out for __, out in shapes)
        return factor, compute_block_bytes(side, widest_out, rows)

    def _run_stripe(
        self, layers: list, stripe: np.ndarray, model_info: VersionRecord, side: int
    ) -> np.ndarray:
        # A stripe is one block row of ``side``-wide blocks; Softmax needs
        # whole rows, so it drains the pipeline before it.
        block_shape = (stripe.shape[0], side)
        current = BlockedMatrix.from_dense(stripe, block_shape)
        run: list = []
        for layer in layers:
            if isinstance(layer, Softmax):
                current = self._drain(run, current, model_info).row_softmax()
                run = []
            else:
                run.append(layer)
        return self._drain(run, current, model_info).to_dense()

    def _drain(
        self, layers: list, current: BlockedMatrix, model_info: VersionRecord
    ) -> BlockedMatrix:
        if not layers:
            return current
        shape = (current.shape[0], _stage_output_features(layers, current.shape[1]))
        run = self._prepared_run(layers, current.block_shape[1], model_info)
        run.stripes.bind(current)
        try:
            return drain_to_matrix(run.tree, shape, current.block_shape)
        finally:
            run.stripes.bind(None)  # the tree outlives the caller's input

    def _prepared_run(
        self, layers: list, side: int, model_info: VersionRecord
    ) -> _PreparedRun:
        """The run's tree, built on its first call and again only if one
        of its weight tables was dropped and stored anew."""
        tables = tuple(
            weight_block_table(self.catalog, model_info, layer, self._block_shape)
            for layer in layers
            if isinstance(layer, Linear)
        )
        runs = self._runs.get(model_info.model)
        if runs is None:
            runs = self._runs[model_info.model] = {}
        key = (model_info.name, tuple(map(id, layers)), side)
        run = runs.get(key)
        if run is None or any(a is not b for a, b in zip(run.tables, tables)):
            tree, stripes = self.vector_pipeline(layers, side, model_info)
            run = runs[key] = _PreparedRun(tree, stripes, tables)
        return run

    def vector_pipeline(
        self, layers: list, side: int, model_info: VersionRecord
    ) -> tuple[Operator, BoundBlockScan]:
        """The block pipeline of a Softmax-free run of layers, and the scan
        its input is bound to: one stripe, blocked ``stripe rows × side``.

        Each Linear joins the stripe against its weight table's compute
        blocks, ``side × side`` (a multiple of the stored side).
        """
        factor = side // self.config.tensor_block_cols
        stripes = BoundBlockScan(label="stripe")
        pipeline: Operator = stripes
        for layer in layers:
            if isinstance(layer, Linear):
                table = weight_block_table(
                    self.catalog, model_info, layer, self._block_shape
                )
                weights = reblock(
                    SeqScan(table), layer.weight.data.shape, self._block_shape, factor
                )
                # A partial is stripe rows × side doubles (1 MB at the
                # default stripe and f = 1): batches of 8 // f keep about
                # 8 MB of them alive between the multiply and SUM_BLOCK.
                mm = matmul_pipeline(
                    prefix_blocks(pipeline, "a"),
                    prefix_blocks(weights, "b"),
                    batch_size=max(1, 8 // factor),
                )
                pipeline = bias_add_pipeline(mm, layer.bias.data, block_cols=side)
            elif isinstance(layer, ReLU):
                pipeline = elementwise_pipeline(
                    pipeline, lambda v: np.maximum(v, 0.0), "relu"
                )
            elif isinstance(layer, Sigmoid):
                pipeline = elementwise_pipeline(
                    pipeline, lambda v: 1.0 / (1.0 + np.exp(-v)), "sigmoid"
                )
            else:
                raise PlanError(
                    f"relation-centric vector stage cannot execute layer "
                    f"{type(layer).__name__}"
                )
        return pipeline, stripes

    # -- convolution stages --------------------------------------------------

    def run_conv_stage(
        self,
        conv: Conv2d,
        images: np.ndarray,
        model_info: VersionRecord,
        apply_relu: bool = False,
        result_table: str | None = None,
    ) -> EngineResult:
        """Spatially rewrite a convolution and run it block-wise.

        Each image is flattened to a patch matrix F (im2col); F × Kᵀ runs
        as join + aggregation against the kernel block table, and the
        output blocks stream into a result table.  A named
        ``result_table`` is kept for the caller (the feature map may be
        too large to materialise — that is why this representation was
        chosen; see :meth:`load_conv_result`) and the outputs are empty.
        Unnamed, the table is a scratch one: the stage returns its
        ``(batch, out_h, out_w, C)`` outputs and drops it.
        """
        if images.ndim != 4:
            raise PlanError(
                f"conv stage expects (batch, H, W, C) input, got {images.shape}"
            )
        with self._lock:
            if result_table is not None:
                result = self._run_conv_stage(conv, images, model_info, apply_relu, result_table)
            else:
                scratch = f"__result_{model_info.name}_{next(_scratch_tables)}"
                try:
                    result = self._run_conv_stage(conv, images, model_info, apply_relu, scratch)
                    out_h, out_w, channels = conv.output_shape(images.shape[1:])
                    nbytes = len(images) * out_h * out_w * channels * 8
                    with self.budget.borrow(nbytes, tag="conv-out"):
                        result.outputs = self.load_conv_result(
                            scratch, len(images), out_h, out_w, channels
                        )
                finally:
                    if self.catalog.has_table(scratch):
                        self.catalog.drop_table(scratch)
            result.peak_memory_bytes = self.budget.peak
            self._telemetry.audit.observe_peak("relation-centric", result.peak_memory_bytes)
            return result

    def _run_conv_stage(
        self, conv, images, model_info, apply_relu, result_table
    ) -> EngineResult:
        block_shape = self._block_shape
        weights = weight_block_table(self.catalog, model_info, conv, block_shape)
        out_info = self.catalog.create_table(result_table, block_table_schema())
        kh, kw = conv.kernel_size
        out_h, out_w, __ = conv.output_shape(images.shape[1:])
        stripe_blocks = self._stripe_blocks
        stripes = -(-out_h * out_w // self.stripe_rows)
        self.budget.reset_peak()
        start = time.perf_counter()
        for n, image in enumerate(images):
            patches = im2col(image, kh, kw, conv.stride, conv.padding)
            with self.budget.borrow(patches.nbytes, tag="im2col"):
                for lo in range(0, patches.shape[0], self.stripe_rows):
                    stripe = patches[lo : lo + self.stripe_rows]
                    blocked = BlockedMatrix.from_dense(stripe, block_shape)
                    mm = matmul_pipeline(
                        block_scan_from_matrix(blocked, "a", label="patches"),
                        block_scan_from_table(weights, "b"),
                    )
                    pipeline = bias_add_pipeline(
                        mm, conv.bias.data, block_cols=block_shape[1]
                    )
                    if apply_relu:
                        pipeline = elementwise_pipeline(
                            pipeline, lambda v: np.maximum(v, 0.0), "relu"
                        )
                    # Each stripe of each image owns its own run of block
                    # rows in the output relation (load_conv_result inverts).
                    first = (n * stripes + lo // self.stripe_rows) * stripe_blocks
                    for row in pipeline:
                        out_info.heap.insert((row[0] + first,) + row[1:])
                        out_info.row_count += 1
                    self._m_stripes.inc()
        measured = time.perf_counter() - start
        self._m_run_seconds.observe(measured)
        return EngineResult(
            outputs=np.empty((0,)),
            engine="relation-centric",
            measured_seconds=measured,
            detail={
                "result_table_rows": float(out_info.row_count),
                "out_h": float(out_h),
                "out_w": float(out_w),
            },
        )

    @property
    def _stripe_blocks(self) -> int:
        """Block rows one full stripe of a conv stage's patches spans."""
        return -(-self.stripe_rows // self._block_shape[0])

    def load_conv_result(
        self,
        result_table: str,
        images: int,
        out_h: int,
        out_w: int,
        out_channels: int,
    ) -> np.ndarray:
        """Materialise a conv result table written by this engine's
        :meth:`run_conv_stage` as ``(images, out_h, out_w, C)``."""
        info = self.catalog.get_table(result_table)
        rows = out_h * out_w
        stripes = -(-rows // self.stripe_rows)
        out = np.empty((images, rows, out_channels))
        for __, (i, j, nrows, ncols, data) in info.heap.scan():
            stripe, i = divmod(i, self._stripe_blocks)
            n, s = divmod(stripe, stripes)
            top = s * self.stripe_rows + i * self._block_shape[0]
            left = j * self._block_shape[1]
            out[n, top : top + nrows, left : left + ncols] = block_array(nrows, ncols, data)
        return out.reshape(images, out_h, out_w, out_channels)


def _stage_output_features(layers: list, in_features: int) -> int:
    features = in_features
    for layer in layers:
        if isinstance(layer, Linear):
            features = layer.out_features
    return features
