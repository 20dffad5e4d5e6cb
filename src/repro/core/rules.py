"""Co-optimization transformation rules (Sec. 2 / Sec. 7.2.1).

The flagship rule is **model decomposition & push-down**: for a pipeline
``model(D1 ⋈ D2)`` whose first layer is a dimension-reducing matmul with
weight ``W``, split ``W`` row-wise into ``W1``/``W2`` (one part per join
input) and push each partial matmul below the join::

    W × (D1 ⋈ D2)  =  (W1 × D1) ⊕⋈ (W2 × D2)

The join then carries 256-dimensional partial activations instead of 968
raw features, shrinking the intermediate result — the paper measures a
5.7× speedup on the Bosch pipeline.

Both the baseline and the rewritten pipeline are built from the same
physical operators, so benchmarks compare executions, not simulations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dlruntime.layers import Linear, Model
from ..errors import PlanError
from ..relational.expressions import ColumnRef
from ..relational.batch import Batch
from ..relational.operators import MapBatches, Operator, SimilarityJoin
from ..relational.schema import ColumnType, Schema


@dataclass
class DecomposedWeights:
    """First-layer weights split at the join boundary."""

    w1: np.ndarray  # (left features, hidden)
    w2: np.ndarray  # (right features, hidden)
    bias: np.ndarray


def decompose_first_layer(model: Model, split: int) -> DecomposedWeights:
    """Split the first (Linear) layer's weights row-wise at ``split``."""
    first = model.layers[0]
    if not isinstance(first, Linear):
        raise PlanError(
            "decomposition push-down requires the model's first layer to be "
            f"Linear, got {type(first).__name__}"
        )
    if not 0 < split < first.in_features:
        raise PlanError(
            f"split {split} out of range for {first.in_features} input features"
        )
    weight = first.weight.data
    return DecomposedWeights(
        w1=weight[:split, :], w2=weight[split:, :], bias=first.bias.data
    )


@dataclass
class DecomposedPipelines:
    """The two alternatives the benchmark compares."""

    baseline: Operator
    pushed_down: Operator
    join_key_correlation: float | None = None


class DecomposePushDownRule:
    """Builds baseline and pushed-down pipelines for a join-then-model query.

    ``left`` / ``right`` produce rows containing the two vertical feature
    partitions; ``left_feature_cols`` / ``right_feature_cols`` name the
    feature columns (in model input order: left features first), and
    ``left_key`` / ``right_key`` name the similarity-join columns.
    """

    def __init__(
        self,
        model: Model,
        left_feature_cols: list[str],
        right_feature_cols: list[str],
        left_key: str,
        right_key: str,
        epsilon: float,
        batch_size: int = 1024,
    ):
        first = model.layers[0]
        if not isinstance(first, Linear):
            raise PlanError("rule requires a Linear first layer")
        total = len(left_feature_cols) + len(right_feature_cols)
        if total != first.in_features:
            raise PlanError(
                f"model expects {first.in_features} features but the join "
                f"provides {total}"
            )
        self._model = model
        self._left_cols = list(left_feature_cols)
        self._right_cols = list(right_feature_cols)
        self._left_key = left_key
        self._right_key = right_key
        self._epsilon = epsilon
        self._batch_size = batch_size
        self._weights = decompose_first_layer(model, len(left_feature_cols))

    # -- baseline: join first, model on the joined wide rows --------------

    def build_baseline(self, left: Operator, right: Operator) -> Operator:
        join = SimilarityJoin(
            left,
            right,
            ColumnRef(self._left_key),
            ColumnRef(self._right_key),
            self._epsilon,
        )
        features = _feature_matrix(join.schema, self._left_cols + self._right_cols)
        model = self._model

        def model_udf(batch: Batch) -> Batch:
            return Batch(len(batch), [model.predict(features(batch))])

        return MapBatches(
            join,
            model_udf,
            Schema.of(("prediction", ColumnType.INT)),
            batch_size=self._batch_size,
            label=f"model:{model.name}",
        )

    # -- rewritten: partial matmuls pushed below the join ------------------

    def build_pushed_down(self, left: Operator, right: Operator) -> Operator:
        left_partial = self._partial_stage(
            left, self._left_cols, self._left_key, self._weights.w1, "left"
        )
        right_partial = self._partial_stage(
            right, self._right_cols, self._right_key, self._weights.w2, "right"
        )
        join = SimilarityJoin(
            left_partial,
            right_partial,
            ColumnRef("left_key"),
            ColumnRef("right_key"),
            self._epsilon,
        )
        schema = join.schema
        part1_idx = schema.index_of("left_part")
        part2_idx = schema.index_of("right_part")
        bias = self._weights.bias
        rest = self._model.layers[1:]

        def combine_udf(batch: Batch) -> Batch:
            part1 = np.vstack(batch.column(part1_idx))
            out = part1 + np.vstack(batch.column(part2_idx)) + bias
            for layer in rest:
                out = layer.forward(out)
            return Batch(len(batch), [np.argmax(out, axis=-1)])

        return MapBatches(
            join,
            combine_udf,
            Schema.of(("prediction", ColumnType.INT)),
            batch_size=self._batch_size,
            label="combine+rest",
        )

    def _partial_stage(
        self,
        source: Operator,
        feature_cols: list[str],
        key_col: str,
        weight: np.ndarray,
        side: str,
    ) -> Operator:
        features = _feature_matrix(source.schema, feature_cols)
        key_idx = source.schema.index_of(key_col)

        def partial_udf(batch: Batch) -> Batch:
            # Keys pass through as they are, so the join drops a NULL key's
            # row as the baseline's join does; each partial row stays an array.
            return Batch(len(batch), [batch.column(key_idx), list(features(batch) @ weight)])

        out_schema = Schema.of(
            (f"{side}_key", source.schema[key_idx].ctype),
            (f"{side}_part", ColumnType.BLOB),
        )
        return MapBatches(
            source,
            partial_udf,
            out_schema,
            batch_size=self._batch_size,
            label=f"pushdown:{side}",
        )

    def build(self, left: Operator, right: Operator) -> DecomposedPipelines:
        """Both pipelines over fresh scans of the same inputs."""
        return DecomposedPipelines(
            baseline=self.build_baseline(left, right),
            pushed_down=self.build_pushed_down(left, right),
        )


def _feature_matrix(schema: Schema, columns: list[str]):
    """A function from a batch to its ``columns`` as one float64 matrix."""
    indices = [schema.index_of(c) for c in columns]

    def features(batch: Batch) -> np.ndarray:
        out = np.empty((len(batch), len(indices)))
        for j, i in enumerate(indices):
            out[:, j] = batch.column(i)
        return out

    return features
