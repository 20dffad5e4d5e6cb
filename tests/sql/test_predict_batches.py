"""SQL PREDICT over column batches agrees with the numpy entry points.

The PREDICT operator gathers features from the scan's column batches and
re-cuts them to the planner's batch size, so every statement here is held
to ``db.predict_labels`` / ``db.predict`` on the same matrix, cut into the
same 1024-row batches.
"""

import numpy as np
import pytest

from repro import Database
from repro.models import fraud_fc_256

BATCH = 1024
FEATURES = [f"f{i}" for i in range(28)]
COLS = ", ".join(FEATURES)


def per_batch(fn, x):
    """``fn`` over ``x`` in the planner's batches, concatenated."""
    parts = [fn(x[i:i + BATCH]) for i in range(0, len(x), BATCH)]
    return np.concatenate(parts) if parts else np.empty(0)


def make_db(n, seed=0, text=False, nulls=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 28))
    if nulls:
        x[rng.random(size=x.shape) < 0.02] = np.nan
    db = Database()
    note = "note TEXT, " if text else ""
    db.execute(f"CREATE TABLE tx (id INT, {note}{', '.join(f + ' DOUBLE' for f in FEATURES)})")
    rows = [
        (i, *((f"row {i}",) if text else ()), *(None if np.isnan(v) else v for v in feats))
        for i, feats in enumerate(x.tolist())
    ]
    db.load_rows("tx", rows)
    db.register_model(fraud_fc_256(), name="fraud")
    return db, x


def labels(db, x):
    return per_batch(lambda b: db.predict_labels("fraud", b), x)


def proba(db, x, cls=1):
    return per_batch(lambda b: db.predict("fraud", b).outputs[:, cls], x)


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 20_000])
def test_predict_matches_predict_labels_at_every_batch_edge(n):
    db, x = make_db(n)
    try:
        cur = db.execute(f"SELECT id, PREDICT(fraud, {COLS}) AS pred FROM tx")
        assert [r[0] for r in cur] == list(range(n))
        got = np.array([r[1] for r in cur], dtype=np.int64)
        np.testing.assert_array_equal(got, labels(db, x))
        assert all(type(r[0]) is int and type(r[1]) is int for r in cur)
    finally:
        db.close()


@pytest.mark.parametrize("n", [1, 1025])
def test_predict_proba_matches_predict(n):
    db, x = make_db(n, seed=1)
    try:
        cur = db.execute(f"SELECT PREDICT_PROBA(fraud, 1, {COLS}) AS p FROM tx")
        got = np.array([r[0] for r in cur])
        np.testing.assert_array_equal(got, proba(db, x))
        assert all(type(r[0]) is float for r in cur)
    finally:
        db.close()


def test_predict_with_where_filter():
    db, x = make_db(3000, seed=2)
    try:
        cur = db.execute(
            f"SELECT id, PREDICT(fraud, {COLS}) FROM tx WHERE f0 > 0.25 AND id % 3 <> 1"
        )
        keep = (x[:, 0] > 0.25) & (np.arange(len(x)) % 3 != 1)
        assert [r[0] for r in cur] == np.flatnonzero(keep).tolist()
        np.testing.assert_array_equal([r[1] for r in cur], labels(db, x[keep]))
    finally:
        db.close()


def test_predict_with_a_computed_argument():
    db, x = make_db(1500, seed=3)
    try:
        cur = db.execute(f"SELECT PREDICT(fraud, f0 * 2, {', '.join(FEATURES[1:])}) FROM tx")
        doubled = x.copy()
        doubled[:, 0] *= 2
        np.testing.assert_array_equal([r[0] for r in cur], labels(db, doubled))
    finally:
        db.close()


def test_null_features_become_nan():
    db, x = make_db(1100, seed=4, nulls=True)
    try:
        assert np.isnan(x).any()
        cur = db.execute(f"SELECT PREDICT(fraud, {COLS}) FROM tx")
        np.testing.assert_array_equal([r[0] for r in cur], labels(db, x))
        cur = db.execute(f"SELECT PREDICT_PROBA(fraud, 0, {COLS}) FROM tx")
        np.testing.assert_array_equal([r[0] for r in cur], proba(db, x, cls=0))
    finally:
        db.close()


def test_table_with_a_text_column():
    db, x = make_db(1300, seed=5, text=True)
    try:
        cur = db.execute(f"SELECT note, PREDICT(fraud, {COLS}) FROM tx WHERE id < 1200")
        assert [r[0] for r in cur] == [f"row {i}" for i in range(1200)]
        np.testing.assert_array_equal([r[1] for r in cur], labels(db, x[:1200]))
    finally:
        db.close()


def test_explain_analyze_predict_counts_scan_rows_and_engine_batches():
    db, __ = make_db(2500, seed=6)
    try:
        cur = db.execute(f"EXPLAIN ANALYZE SELECT id, PREDICT(fraud, {COLS}) FROM tx")
        report = "\n".join(row[0] for row in cur)
        assert "SeqScan(tx)  [rows=2500" in report
        assert "MapRows(predict(fraud), batch=1024)  [rows=2500" in report
        first_stage = [a for a in cur.stats.stage_audits if a.stage_index == 0]
        assert [a.rows for a in first_stage] == [1024, 1024, 452]
    finally:
        db.close()
