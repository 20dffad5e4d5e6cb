"""Counters are system state: telemetry off stops exporting, not counting.

One seeded session runs twice, with telemetry on and off, and every
relation that reports counters must read the same either way: health
(recovery outcomes), the SHOW SERVER request outcomes, SHOW FAULTS and
the buffer-pool rows of SHOW STATS.  Wall-clock cells are normalised as
the golden SHOW test does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.config import mb
from repro.data import fraud_transactions
from repro.errors import OutOfMemoryError
from repro.models import fraud_fc_256
from repro.relational.schema import ColumnType, Schema

from ..sql.test_show_golden import _normalise

#: Fraud-FC-256's 63,504 weight bytes overflow a 40 KiB whole-tensor
#: budget the optimizer's 64 MiB threshold does not foresee: with
#: resilience off the stage gives up, with it on the stage is rescued.
TIGHT = dict(
    memory_threshold_bytes=mb(64),
    dl_memory_limit_bytes=40 * 1024,
    resilience_enabled=False,
)

#: Health components that describe telemetry itself exist only when on
#: (and so change the overall row's component count; its status stays).
_TELEMETRY_ONLY = ("telemetry.", "slo:", "overall")


def _relation(db: Database, sql: str) -> list[list]:
    cursor = db.execute(sql)
    return _normalise(cursor.columns, cursor.rows)


def _session(telemetry_enabled: bool) -> dict[str, list]:
    x = np.random.default_rng(7).normal(size=(16, 28))
    with Database(telemetry_enabled=telemetry_enabled, seed=7, **TIGHT) as db:
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
        db.execute("SELECT id FROM tx WHERE id = 3")
        with pytest.raises(OutOfMemoryError):
            db.predict("fraud", x)  # a client-visible give-up
        db.set_option("resilience_enabled", True)
        db.predict("fraud", x)  # rescued by re-lowering
        db.faults.arm(site="server.batch", nth=1, transient=True)
        with db.serve(workers=1) as server:
            for __ in range(3):
                server.predict("fraud", x[:2])
            server_rows = _relation(
                db, "SHOW SERVER WHERE stat LIKE 'server.requests.%'"
            )
        health = db.health()
        return {
            "health": [
                list(row)
                for row in health.rows()
                if not row[0].startswith(_TELEMETRY_ONLY)
            ]
            + [["overall", health.status]],
            "server": server_rows,
            "faults": _relation(db, "SHOW FAULTS"),
            "pool": _relation(db, "SHOW STATS WHERE stat LIKE 'bufferpool.%'"),
        }


@pytest.fixture(scope="module")
def sessions() -> dict[bool, dict[str, list]]:
    return {enabled: _session(enabled) for enabled in (True, False)}


@pytest.mark.parametrize("relation", ["health", "server", "faults", "pool"])
def test_telemetry_off_reads_the_same_counters(sessions, relation):
    assert sessions[False][relation] == sessions[True][relation]


def test_telemetry_off_still_counts(sessions):
    off = sessions[False]
    health = {row[0]: row[1:] for row in off["health"]}
    assert health["recovery"] == ["failing", "rescued=1 gave_up=1"]
    server = {row[0]: row[1] for row in off["server"]}
    assert server["server.requests.submitted"] == 3
    assert server["server.requests.completed"] == 3
    batch = next(row for row in off["faults"] if row[0] == "server.batch")
    assert batch[6:] == [1, 1, 1]  # fires, retries, recoveries
    pool = {row[0]: row[1] for row in off["pool"]}
    assert pool["bufferpool.hits"] > 0
