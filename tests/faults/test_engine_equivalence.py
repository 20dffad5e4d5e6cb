"""Differential engine equivalence: every representation, same function.

The optimizer's whole premise is that representation choice is a pure
performance decision — dl-centric, udf-centric, relation-centric, and the
adaptive hybrid mix must compute identical predictions.  These tests
check that over seeded random models, and re-check it after a transient
injected fault has been recovered from, so recovery never silently
changes an answer.
"""

import numpy as np
import pytest

from repro import Database
from repro.dlruntime.layers import Conv2d, Model, ReLU
from repro.errors import InjectedFaultError
from repro.models import fraud_fc_256
from repro.models.definitions import one_hidden_fc

FORCED = ["dl-centric", "udf-centric", "relation-centric"]


def seeded_ffnn(seed: int) -> Model:
    return one_hidden_fc(f"eq-ffnn-{seed}", 12, 32, 3, seed=seed)


def seeded_cnn(seed: int) -> Model:
    rng = np.random.default_rng(seed)
    return Model(
        f"eq-cnn-{seed}",
        [Conv2d(3, 8, (3, 3), rng=rng, name="c1"), ReLU()],
        input_shape=(10, 10, 3),
    )


@pytest.mark.parametrize("seed", [0, 17, 23])
def test_ffnn_representations_agree(seed):
    model = seeded_ffnn(seed)
    x = np.random.default_rng(seed + 100).normal(size=(16, 12))
    reference = model.forward(x)
    with Database() as db:
        db.register_model(model, name="m")
        hybrid = db.predict("m", x).outputs
        np.testing.assert_allclose(hybrid, reference, atol=1e-6)
        for rep in FORCED:
            out = db.predict("m", x, force=rep).outputs
            np.testing.assert_allclose(
                out, reference, atol=1e-6,
                err_msg=f"{rep} diverged from the reference forward pass",
            )


@pytest.mark.parametrize("seed", [3, 29])
def test_cnn_representations_agree(seed):
    model = seeded_cnn(seed)
    x = np.random.default_rng(seed + 100).normal(size=(4, 10, 10, 3))
    reference = model.forward(x)
    # Small square tensor blocks so the 8×8 output feature map spans
    # several blocks of the relation-centric result table.
    with Database(tensor_block_rows=32, tensor_block_cols=32) as db:
        db.register_model(model, name="m")
        hybrid = db.predict("m", x).outputs
        np.testing.assert_allclose(hybrid, reference, atol=1e-6)
        for rep in FORCED:
            out = db.predict("m", x, force=rep).outputs
            np.testing.assert_allclose(
                out, reference, atol=1e-6,
                err_msg=f"{rep} diverged from the reference forward pass",
            )
        # The relation-centric stage can also stream its feature map into
        # a result table; load it back and compare against the same truth.
        from repro.engines import RelationCentricEngine

        engine = RelationCentricEngine(db.catalog, db.config)
        engine.run_vector_stage(
            model.layers, x, db.model_info("m"), result_table="eq_out"
        )
        out = engine.load_conv_result("eq_out", x.shape[0], 8, 8, 8)
        np.testing.assert_allclose(
            out, reference, atol=1e-6,
            err_msg="relation-centric diverged from the reference forward pass",
        )


@pytest.mark.parametrize("rep", [None] + FORCED)
def test_recovered_fault_does_not_change_answers(rep):
    """Inject a one-shot transient stage fault, retry, compare outputs."""
    model = seeded_ffnn(7)
    x = np.random.default_rng(7).normal(size=(8, 12))
    with Database() as db:
        db.register_model(model, name="m")
        baseline = db.predict("m", x, force=rep).outputs
        db.faults.arm(site="engine.stage", nth=1)
        with pytest.raises(InjectedFaultError):
            db.predict("m", x, force=rep)
        recovered = db.predict("m", x, force=rep).outputs
        np.testing.assert_allclose(recovered, baseline, atol=1e-6)
        np.testing.assert_allclose(recovered, model.forward(x), atol=1e-6)


def test_recovered_fault_through_server_matches_direct_labels(rng):
    with Database() as db:
        db.register_model(fraud_fc_256(), name="fraud")
        feats = rng.normal(size=(12, 28))
        expected = db.predict_labels("fraud", feats)
        db.faults.arm(site="engine.stage", nth=1)
        with db.serve(workers=1) as server:
            got = server.submit("fraud", feats).result(timeout=30.0)
        np.testing.assert_array_equal(got, expected)
        assert db.faults.recovery_total >= 1
