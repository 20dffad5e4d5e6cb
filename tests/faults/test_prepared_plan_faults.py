"""A storage fault inside a prepared plan's scan fails that statement
only: the plan it ran is dropped, and the next call of the shape answers
from the data.  Hypothesis-free, like the rest of the fault matrix."""

import pytest

from repro import Database
from repro.errors import InjectedFaultError
from repro.sql.parser import STATEMENTS

KB = 1024
ROWS = [(i, i * 0.5) for i in range(2000)]  # ~7 pages, past the 4-page pool


def prepared_op(db, sql):
    entry = db._statements._plans.get(STATEMENTS.find(sql)[0])
    return None if entry is None else entry.op


def expected(lo, hi):
    return [row for row in ROWS if row[0] >= lo and row[1] < hi]


@pytest.mark.parametrize("site", ["disk.read_page", "bufferpool.evict"])
def test_a_storage_fault_in_a_prepared_scan_fails_only_that_call(site):
    sql = "SELECT id, v FROM t WHERE id >= {} AND v < {}"
    with Database(page_size=4 * KB, buffer_pool_bytes=16 * KB, faults_seed=5) as db:
        db.execute("CREATE TABLE t (id INT, v DOUBLE)")
        db.load_rows("t", ROWS)
        assert db.execute(sql.format(10, 100.0)).rows == expected(10, 100.0)
        assert db.execute(sql.format(20, 50.5)).rows == expected(20, 50.5)  # prepared
        failed = prepared_op(db, sql.format(0, 0.0))
        db.faults.arm(site=site, nth=3, transient=False)
        with pytest.raises(InjectedFaultError):
            db.execute(sql.format(30, 900.0))
        assert prepared_op(db, sql.format(0, 0.0)) is None  # the plan that raised is gone
        for lo, hi in ((40, 10.0), (0, 1000.0), (1990, 2000.0)):
            assert db.execute(sql.format(lo, hi)).rows == expected(lo, hi)
        assert prepared_op(db, sql.format(0, 0.0)) not in (None, failed)
