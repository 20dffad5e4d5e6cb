"""Seeded inputs: tables, feature batches, SQL literals, arrival schedules.

Everything the program sees is generated here from ``--seed``; each kind
of input draws from its own stream so adding one does not shift another.
"""

from __future__ import annotations

import numpy as np

NUM_FEATURES = 28
FEATURE_COLS = [f"f{i}" for i in range(NUM_FEATURES)]

_STREAMS = {"table": 1, "features": 2, "literals": 3, "arrivals": 4, "inserts": 5}


def rng(seed: int, stream: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAMS[stream], index])


def fraud_rows(seed: int, n: int, start_id: int = 0, stream: str = "table"):
    """``(features, rows)`` for the ``(id, f0..f27, label)`` fraud schema."""
    gen = rng(seed, stream)
    features = gen.normal(size=(n, NUM_FEATURES))
    labels = gen.integers(0, 2, size=n)
    rows = [
        (start_id + i, *feats, int(label))
        for i, (feats, label) in enumerate(zip(features.tolist(), labels.tolist()))
    ]
    return features, rows


def feature_batch(seed: int, rows: int, width: int = NUM_FEATURES) -> np.ndarray:
    return rng(seed, "features").normal(size=(rows, width))


def poisson_schedule(seed: int, rate: float, seconds: float, index: int = 0):
    """Due times (seconds from phase start) of Poisson arrivals at ``rate``/s
    falling inside ``seconds``."""
    gen = rng(seed, "arrivals", index)
    count = int(rate * seconds * 1.2) + 32
    due = np.cumsum(gen.exponential(1.0 / rate, size=count))
    return due[due < seconds]


def scan_sql(model: str = "fraud", table: str = "tx") -> str:
    return f"SELECT id, PREDICT({model}, {', '.join(FEATURE_COLS)}) AS pred FROM {table}"


def point_statements(seed: int, count: int, table_rows: int):
    """``(keys, statements)``: point PREDICT queries with two seeded
    literals.  The second predicate is always true (labels are 0/1); it
    exists so that statement texts almost never repeat and a cache keyed by
    text cannot stand in for one keyed by statement shape."""
    gen = rng(seed, "literals")
    keys = gen.integers(0, table_rows, size=count)
    bounds = gen.integers(1, 2**31, size=count)
    cols = ", ".join(FEATURE_COLS)
    statements = [
        f"SELECT id, PREDICT(fraud, {cols}) FROM tx_small "
        f"WHERE id = {k} AND label <= {b}"
        for k, b in zip(keys.tolist(), bounds.tolist())
    ]
    return keys, statements


def insert_statements(rows: list[tuple], per_statement: int) -> list[str]:
    """``INSERT INTO tx VALUES ...`` statements of ``per_statement`` rows."""
    out = []
    for lo in range(0, len(rows), per_statement):
        values = ", ".join(
            "(" + ", ".join(repr(v) for v in row) + ")"
            for row in rows[lo : lo + per_statement]
        )
        out.append(f"INSERT INTO tx VALUES {values}")
    return out
