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
blocks; a stage multiplies on square *compute blocks* of side
``f × tensor_block_cols``, assembled from the stored blocks as the weight
scan streams (:func:`~repro.tensor.linalg.reblock`), and kept resident in
the buffer pool for the next call.  ``f`` is picked per pass from the
memory the stage may use (:func:`~repro.core.cost.compute_block_factor`);
at ``f = 1`` the compute blocks are the stored blocks, decoded once.

A stage runs as *passes* over the rows of its input, split at the layers
that need a whole image:

* a pass chains MATMUL / RELU / SIGMOID / SOFTMAX pipelines stripe by
  stripe; Softmax needs whole rows, which a stripe has, so it drains the
  pipeline before it and the stripe goes on through a new one;
* a Conv2d starts a pass whose rows are the im2col patch rows of the
  pass before it (the paper's spatial rewrite), and its kernel matrix
  (``kh·kw·C × out_channels``) is multiplied like a Linear's weights;
* Flatten and MaxPool2d apply their own ``forward`` to the drained
  output of the pass before them.

Every step's output is charged to the budget from its allocation until
the next step has read it, and the last one's until the stage returns.

A Softmax-free run's operator tree depends on the version, its layers and
``f`` only, so the engine builds it once per such triple and each call
binds its stripes into the tree's input scan.  The engine runs one stage at a time:
the trees and the stage's budget are shared state.  A stage whose output
dwarfs memory (LandCover's feature map) streams its last pass into a
result table instead of an array.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import NamedTuple

import numpy as np

from ..config import SystemConfig
from ..core.cost import compute_block_bytes, compute_block_factor
from ..dlruntime.layers import (
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Softmax,
)
from ..dlruntime.memory import MemoryBudget
from ..errors import PlanError
from ..models.store import weight_block_table
from ..relational.operators import Operator, SeqScan
from ..storage.catalog import Catalog, VersionRecord, TableInfo
from ..telemetry import Telemetry
from ..tensor.block import block_table_schema
from ..tensor.blocked import BlockedMatrix
from ..tensor.im2col import patch_windows
from ..tensor.linalg import (
    BoundBlockScan,
    bias_add_pipeline,
    drain_to_matrix,
    elementwise_pipeline,
    matmul_pipeline,
    prefix_blocks,
    reblock,
)
from .base import EngineResult


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
        # Stages share the budget and the prepared trees: one runs at a time.
        self._lock = threading.Lock()
        # model → (version name, run's layers, side) → its prepared run;
        # entries die with the model, or with this engine on a config change.
        self._runs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @property
    def _block_shape(self) -> tuple[int, int]:
        return (self.config.tensor_block_rows, self.config.tensor_block_cols)

    # -- stages -------------------------------------------------------------

    def run_vector_stage(
        self,
        layers: list,
        x: np.ndarray,
        model_info: VersionRecord,
        checkpoint=None,
        result_table: str | None = None,
    ) -> EngineResult:
        """Run a stage's layers as passes over row stripes of ``x``.

        Each pass multiplies on square compute blocks of side ``f`` times
        the stored block side, with ``f`` from
        :func:`~repro.core.cost.compute_block_factor`; their footprint is
        borrowed from the budget for every stripe.  ``checkpoint`` (if
        given) runs before every stripe — the executor's cooperative
        stage-deadline hook.  A named ``result_table`` receives the last
        pass's output as one blocked ``(rows, C)`` matrix (see
        :meth:`load_conv_result`) and the outputs are empty: the table is
        kept for the caller, and dropped if the stage fails.  The stage's
        peak counts its output, as every step's output is charged.
        """
        steps = _passes(layers)
        if result_table is not None and not isinstance(steps[-1], list):
            raise PlanError(
                f"result table {result_table!r} needs a stage that ends in a "
                f"pass of block layers, not in {type(steps[-1]).__name__}"
            )
        with self._lock:
            self.budget.reset_peak()
            start = time.perf_counter()
            table = None
            if result_table is not None:
                table = self.catalog.create_table(result_table, block_table_schema())
            try:
                outputs = self._run_steps(steps, x, model_info, checkpoint, table)
            except BaseException:
                if table is not None:
                    self.catalog.drop_table(result_table)
                raise
            measured = time.perf_counter() - start
            self._m_run_seconds.observe(measured)
            self._telemetry.audit.observe_peak("relation-centric", self.budget.peak)
            detail = {}
            if table is not None:
                outputs = np.empty((0,))
                detail["result_table_rows"] = float(table.row_count)
            return EngineResult(
                outputs=outputs,
                engine="relation-centric",
                measured_seconds=measured,
                peak_memory_bytes=self.budget.peak,
                detail=detail,
            )

    def _run_steps(self, steps, x, model_info, checkpoint, table) -> np.ndarray:
        """The stage's steps in order.  Each step's output is charged to the
        budget from its allocation until the next step has read it, and
        the last one's until the stage returns; with ``table``, the last
        step is a pass that streams into it."""
        held = 0
        try:
            for k, step in enumerate(steps):
                if isinstance(step, list):  # charges its output itself
                    into = table if k == len(steps) - 1 else None
                    y = self._run_pass(step, x, model_info, checkpoint, into)
                else:
                    y = step.forward(x)
                    if np.may_share_memory(y, x):  # Flatten: a view of x
                        x = y
                        continue
                    self.budget.allocate(y.nbytes, tag="pass-out")
                self.budget.release(held)
                held = 0 if y is None else y.nbytes
                x = y
        finally:
            self.budget.release(held)
        return x

    def _run_pass(self, layers, x, model_info, checkpoint, table) -> np.ndarray:
        """One pass over the rows of ``x`` (a Conv2d's patch rows when one
        leads the pass): stripe by stripe into an array of ``x``'s leading
        shape, each stripe's rows charged as ``pass-out`` once written, or
        into ``table`` in whole block rows.  A padded conv's zero-padded
        copy of ``x`` is charged for the pass."""
        conv = layers[0] if isinstance(layers[0], Conv2d) else None
        padded = 0
        if conv is None:
            lead, width = x.shape[:-1], x.shape[-1]
            rows = x.reshape(-1, width)
        elif x.ndim != 4:
            raise PlanError(
                f"conv stage expects (batch, H, W, C) input, got {x.shape}"
            )
        else:
            windows = patch_windows(x, *conv.kernel_size, conv.stride, conv.padding)
            lead, width = windows.shape[:3], int(np.prod(windows.shape[3:]))
            if conv.padding:
                n, h, w, c = x.shape
                padded = n * (h + 2 * conv.padding) * (w + 2 * conv.padding) * c * 8
        shapes = [shape for shape in map(_matmul_shape, layers) if shape]
        if shapes and shapes[0][0] != width:
            raise PlanError(
                f"relation-centric stage expects {shapes[0][0]} features per row, "
                f"got {width} (input {x.shape})"
            )
        count = int(np.prod(lead))
        step = self.stripe_rows
        if table is not None:  # stripes of whole block rows
            step = max(self._block_shape[0], step - step % self._block_shape[0])
        out_features = shapes[-1][1] if shapes else width
        self.budget.allocate(padded, tag="im2col")
        charged = 0  # the output rows written so far, as "pass-out"
        try:
            factor, footprint = self._compute_blocks(shapes, min(step, count), width)
            side = factor * self.config.tensor_block_cols
            outputs = np.empty((count, out_features)) if table is None else None
            for lo in range(0, count, step):
                if checkpoint is not None:
                    checkpoint()
                if conv is None:
                    stripe = rows[lo : lo + step]
                else:  # gather patch rows lo.. as (image, out row, out col)
                    at = np.arange(lo, min(lo + step, count))
                    image, at = np.divmod(at, lead[1] * lead[2])
                    stripe = windows[image, at // lead[2], at % lead[2]]
                    stripe = stripe.reshape(-1, width)
                out_bytes = stripe.shape[0] * out_features * 8
                with self.budget.borrow(stripe.nbytes, tag="stripe-in"):
                    with self.budget.borrow(footprint, tag="compute-blocks"):
                        result = self._run_stripe(layers, stripe, model_info, side)
                    blocks = result.block_rows()
                    if table is None:  # the rows stay charged in the array
                        charged += self.budget.allocate(out_bytes, tag="pass-out")
                        for __, j, nrows, ncols, data in blocks:
                            left = j * side
                            outputs[lo : lo + nrows, left : left + ncols] = data
                    else:
                        with self.budget.borrow(out_bytes, tag="stripe-out"):
                            for __, j, __n, __c, data in blocks:
                                self._store_block(table, lo, j * side, data)
                self._m_stripes.inc()
        except BaseException:
            self.budget.release(charged)
            raise
        finally:
            self.budget.release(padded)
        if table is not None:
            return None
        return outputs.reshape(tuple(lead) + (out_features,))

    def _store_block(self, table: TableInfo, top: int, left: int, data) -> None:
        """Insert an output block whose corner ``(top, left)`` is a block
        corner into a result table, cut into the table's blocks."""
        rows, cols = self._block_shape
        for r in range(0, data.shape[0], rows):
            for c in range(0, data.shape[1], cols):
                piece = data[r : r + rows, c : c + cols]
                row = ((top + r) // rows, (left + c) // cols, *piece.shape, piece)
                table.heap.insert(row)
                table.row_count += 1

    def _compute_blocks(
        self, shapes: list[tuple[int, int]], rows: int, width: int
    ) -> tuple[int, int]:
        """A pass's compute-block factor and the bytes its blocks hold.

        The memory they may take is the optimizer's threshold, capped by
        the first (largest) stripe's own size, so a stripe's peak stays
        within two stripes, and by what a limited budget has left after
        that stripe.
        """
        stripe_bytes = rows * width * 8
        memory = min(
            self.config.memory_threshold_bytes,
            stripe_bytes,
            self.budget.limit - self.budget.used - stripe_bytes,
        )
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
    ) -> BlockedMatrix:
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
        return self._drain(run, current, model_info)

    def _drain(
        self, layers: list, current: BlockedMatrix, model_info: VersionRecord
    ) -> BlockedMatrix:
        if not layers:
            return current
        shapes = [shape for shape in map(_matmul_shape, layers) if shape]
        shape = (current.shape[0], shapes[-1][1] if shapes else current.shape[1])
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
            if _matmul_shape(layer)
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

        Each Linear (or Conv2d, on its kernel matrix) joins the stripe
        against its weight table's compute blocks, ``side × side`` (a
        multiple of the stored side).
        """
        factor = side // self.config.tensor_block_cols
        stripes = BoundBlockScan(label="stripe")
        pipeline: Operator = stripes
        for layer in layers:
            shape = _matmul_shape(layer)
            if shape:
                table = weight_block_table(
                    self.catalog, model_info, layer, self._block_shape
                )
                weights = reblock(SeqScan(table), shape, self._block_shape, factor)
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
                    f"relation-centric stage cannot execute layer "
                    f"{type(layer).__name__}"
                )
        return pipeline, stripes

    def load_conv_result(
        self,
        result_table: str,
        images: int,
        out_h: int,
        out_w: int,
        out_channels: int,
    ) -> np.ndarray:
        """Materialise a conv stage's result table (see
        :meth:`run_vector_stage`) as ``(images, out_h, out_w, C)``."""
        shape = (images * out_h * out_w, out_channels)
        blocked = BlockedMatrix.load(
            self.catalog.get_table(result_table), shape, self._block_shape
        )
        return blocked.to_dense().reshape(images, out_h, out_w, out_channels)


def _passes(layers: list) -> list:
    """A stage's layers as passes (lists of block layers, a Conv2d only
    first) and the Flatten / MaxPool2d layers between them."""
    steps: list = []
    for layer in layers:
        if isinstance(layer, (Flatten, MaxPool2d)):
            steps.append(layer)
        elif isinstance(layer, Conv2d) or not steps or not isinstance(steps[-1], list):
            steps.append([layer])
        else:
            steps[-1].append(layer)
    return steps


def _matmul_shape(layer) -> tuple[int, int] | None:
    """``(in, out)`` of the matrix a Linear or Conv2d multiplies rows by."""
    if isinstance(layer, Linear):
        return layer.in_features, layer.out_features
    if isinstance(layer, Conv2d):
        kh, kw = layer.kernel_size
        return kh * kw * layer.in_channels, layer.out_channels
    return None
