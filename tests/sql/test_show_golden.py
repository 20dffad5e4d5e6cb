"""Golden SHOW output: every target and form, pinned value for value.

Each case replays one fixed, seeded session (a table, a model with a
promoted second version, SQL predictions, an armed fault and an SLO),
then runs exactly one SHOW form and compares ``(columns, rows)`` with
``show_golden.json``.  Only wall-clock-valued cells are normalised to
their type name, so any other change in what a SHOW returns — a
column, its order, a row, a value — fails here.

Regenerate (only when a change of SHOW output is intended) with
``PYTHONPATH=src python tests/sql/test_show_golden.py``.
"""

from __future__ import annotations

import gc
import json
import re
from pathlib import Path

import pytest

from repro import Database
from repro.data import fraud_transactions
from repro.models import fraud_fc_256
from repro.relational.schema import ColumnType, Schema
from repro.sql.parser import fingerprint, parse

GOLDEN = Path(__file__).with_name("show_golden.json")

PREDICT_SQL = (
    "SELECT id, PREDICT(fraud, "
    + ", ".join(f"f{i}" for i in range(28))
    + ") AS p FROM tx"
)

FORMS = (
    "SHOW TABLES",
    "SHOW MODELS",
    "SHOW METRICS",
    "SHOW STATS",
    "SHOW SERVER",
    "SHOW CLUSTER",
    "SHOW AUDIT",
    "SHOW FAULTS",
    "SHOW HEALTH",
    "SHOW EVENTS",
    "SHOW EVENTS WHERE kind LIKE 'deploy.%'",
    "SHOW SLO",
    "SHOW PROFILE",
    "SHOW DEPLOYMENTS",
    "SHOW WORKLOAD",
    "SHOW WORKLOAD TOP 2 BY count",
    "SHOW WORKLOAD '{fp}'",
    "SHOW TIMELINE {trace}",
)

# Wall-clock values: *_ms columns, histogram quantiles, (name, value)
# rows about seconds or milliseconds, and such "key=<n>" fields in text.
_QUANTILES = frozenset({"p50", "p95", "p99"})
_WALL_KEY = re.compile(r"seconds|_ms\b")
_WALL_FIELD = re.compile(r"(\w+(?:_ms|seconds))=[-0-9.e+]+")


def _session() -> tuple[Database, dict[str, object]]:
    # Setup goes through the Python API so that the workload store holds
    # only the two SELECT shapes: SHOW WORKLOAD orders by total latency,
    # and three predictions outweigh one point lookup on any host unless
    # a garbage collection (≈2 ms) lands inside the lookup, so none may.
    db = Database()
    __, __, rows = fraud_transactions(16, seed=7)
    db.create_table(
        "tx",
        Schema.of(
            ("id", ColumnType.INT),
            *((f"f{i}", ColumnType.DOUBLE) for i in range(28)),
            ("label", ColumnType.INT),
        ),
    )
    db.load_rows("tx", rows)
    db.register_model(fraud_fc_256(), name="fraud")
    db.register_model_version("fraud", "v2", model=fraud_fc_256())
    db.deploy_model("fraud", "v2")
    db.set_slo("fraud", latency_ms=1000.0)
    gc.disable()
    try:
        trace = db.execute(PREDICT_SQL).stats.trace_id
        db.execute(PREDICT_SQL)
        db.execute(PREDICT_SQL)
        db.execute("SELECT id FROM tx WHERE id = 3")
    finally:
        gc.enable()
    db.faults.arm(site="server.batch", transient=False)
    fp = fingerprint(parse(PREDICT_SQL))[0]
    return db, {"trace": trace, "fp": fp}


def _normalise(columns: tuple[str, ...], rows: list[tuple]) -> list[list]:
    out = []
    for row in rows:
        key = row[0]
        cells = []
        for column, value in zip(columns, row):
            wall = (
                column.endswith("_ms")
                or column in _QUANTILES
                or (
                    column == "value"
                    and isinstance(key, str)
                    and _WALL_KEY.search(key) is not None
                )
            )
            if wall:
                cells.append(type(value).__name__)
            elif isinstance(value, str):
                cells.append(_WALL_FIELD.sub(r"\1=float", value))
            else:
                cells.append(value)
        out.append(cells)
    return out


def capture(form: str) -> dict:
    db, params = _session()
    try:
        cursor = db.execute(form.format(**params))
        return {
            "columns": list(cursor.columns),
            "rows": _normalise(cursor.columns, cursor.rows),
        }
    finally:
        db.close()


def _canonical(value: object) -> str:
    return json.dumps(value, indent=1, sort_keys=True, default=repr)


@pytest.mark.parametrize("form", FORMS)
def test_show_output_matches_golden(form):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _canonical(capture(form)) == _canonical(golden[form])


if __name__ == "__main__":
    GOLDEN.write_text(
        _canonical({form: capture(form) for form in FORMS}) + "\n",
        encoding="utf-8",
    )
