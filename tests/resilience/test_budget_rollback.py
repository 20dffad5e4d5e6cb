"""Regression: a failed or rescued stage leaves the memory budgets
balanced — every charge rolls back through try/finally on abort, so
``used`` returns to zero and later queries see a full budget."""

import numpy as np
import pytest

from repro import Database
from repro.config import mb
from repro.errors import InjectedFaultError, OutOfMemoryError
from repro.models import fraud_fc_256

TIGHT = dict(
    telemetry_enabled=True,
    memory_threshold_bytes=mb(64),
    dl_memory_limit_bytes=40 * 1024,
)


def budgets(db):
    executor = db._models.executor
    return {
        "db": executor.db_budget,
        "dl": executor.dl_budget,
        "relation": executor.relation_engine.budget,
    }


def assert_balanced(db):
    for name, budget in budgets(db).items():
        assert budget.used == 0, f"{name} budget leaked {budget.used} bytes"


def test_oom_abort_leaves_budgets_balanced(rng):
    """The raw failure path: recovery disabled, the UDF stage OOMs on its
    weights charge and the error propagates — with nothing left charged."""
    with Database(resilience_enabled=False, **TIGHT) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        with pytest.raises(OutOfMemoryError):
            db.predict("fraud", rng.normal(size=(16, 28)))
        assert_balanced(db)


def test_rescued_stage_leaves_budgets_balanced(rng):
    """The recovery path: the failed UDF attempt rolls back before the
    relation-centric re-run charges its own (bounded) stripes."""
    with Database(**TIGHT) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        result = db.predict("fraud", rng.normal(size=(16, 28)))
        assert result.detail.get("stage0.recovery") == 1.0
        assert_balanced(db)


def test_injected_stage_fault_leaves_budgets_balanced(rng):
    with Database(**TIGHT) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        db.faults.arm(site="engine.stage")
        with pytest.raises(InjectedFaultError):
            db.predict("fraud", rng.normal(size=(16, 28)))
        assert_balanced(db)


def test_forced_dl_oom_leaves_budgets_balanced(rng):
    """The DL-runtime budget unwinds the same way on a forced offload."""
    with Database(**TIGHT) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        with pytest.raises(OutOfMemoryError):
            db.predict("fraud", rng.normal(size=(16, 28)), force="dl-centric")
        assert_balanced(db)


def test_budget_stays_usable_after_repeated_failures(rng):
    """No cumulative drift: many aborted queries in a row never shrink
    the budget headroom, and a final normal-sized query still runs."""
    with Database(resilience_enabled=False, **TIGHT) as db:
        db.register_model(fraud_fc_256(), name="fraud")
        x = rng.normal(size=(16, 28))
        for __ in range(5):
            with pytest.raises(OutOfMemoryError):
                db.predict("fraud", x)
        assert_balanced(db)
    with Database() as db:
        model = fraud_fc_256()
        db.register_model(model, name="fraud")
        np.testing.assert_allclose(
            db.predict("fraud", x).outputs, model.forward(x), atol=1e-12
        )
