"""Plan-quality audit: classification, the auditor ring, and SHOW AUDIT."""

import pytest

from repro import Database
from repro.config import KB, MB
from repro.data import fraud_transactions
from repro.errors import SqlError
from repro.models import fraud_fc_256
from repro.telemetry import PlanAuditor
from repro.telemetry.audit import AuditRow, classify
from repro.telemetry.registry import MetricsRegistry

FEATURES = ", ".join(f"f{i}" for i in range(28))
PREDICT_SQL = f"SELECT PREDICT(fraud, {FEATURES}) FROM tx"


# -- classify ---------------------------------------------------------------


def test_classify_ok_within_band():
    verdict, __ = classify("udf-centric", 1000, 1100, threshold_bytes=1 * MB)
    assert verdict == "ok"


def test_classify_under_estimate():
    verdict, note = classify("udf-centric", 1000, 2100, threshold_bytes=1 * MB)
    assert verdict == "under-estimate"
    assert "2.1x" in note


def test_classify_over_estimate():
    verdict, note = classify("dl-centric", 10_000, 1000, threshold_bytes=1 * MB)
    assert verdict == "over-estimate"
    assert "10%" in note


def test_classify_threshold_breach_beats_ratio():
    # Even a spot-on estimate is a misprediction when the actual peak
    # crosses the routing threshold: the stage should have been lowered.
    verdict, note = classify(
        "udf-centric", 2 * MB, 2 * MB, threshold_bytes=1 * MB
    )
    assert verdict == "threshold-breach"
    assert "routing threshold" in note


def test_classify_unnecessary_lowering():
    verdict, note = classify(
        "relation-centric", 4 * MB, 100 * KB, threshold_bytes=2 * MB
    )
    assert verdict == "unnecessary-lowering"
    assert "under threshold" in note


def test_classify_relation_centric_near_threshold_is_ok():
    verdict, __ = classify(
        "relation-centric", 4 * MB, int(1.95 * MB), threshold_bytes=2 * MB
    )
    assert verdict == "ok"


def test_classify_no_estimate_is_ok():
    verdict, note = classify("udf-centric", 0, 5000, threshold_bytes=1 * MB)
    assert verdict == "ok"
    assert "no estimate" in note


# -- PlanAuditor ------------------------------------------------------------


def make_auditor(max_records=4) -> tuple[PlanAuditor, MetricsRegistry]:
    registry = MetricsRegistry()
    return PlanAuditor(registry, max_records=max_records), registry


def record(auditor, i=0, representation="udf-centric", estimated=1000, actual=1000):
    return auditor.record_stage(
        model="m",
        stage_index=i,
        representation=representation,
        ops="matmul",
        rows=10,
        elapsed_seconds=0.001,
        estimated_bytes=estimated,
        actual_peak_bytes=actual,
        threshold_bytes=1 * MB,
    )


def test_auditor_ring_is_bounded_but_total_grows():
    auditor, __ = make_auditor(max_records=4)
    for i in range(10):
        record(auditor, i)
    assert len(auditor) == 4
    assert auditor.total_recorded == 10
    assert [a.stage_index for a in auditor] == [6, 7, 8, 9]


def test_marker_slices_per_statement_records():
    auditor, __ = make_auditor(max_records=16)
    record(auditor, 0)
    marker = auditor.marker()
    record(auditor, 1)
    record(auditor, 2)
    assert [a.stage_index for a in auditor.records_since(marker)] == [1, 2]
    assert auditor.records_since(auditor.marker()) == []


def test_marker_survives_ring_overflow():
    auditor, __ = make_auditor(max_records=2)
    marker = auditor.marker()
    for i in range(5):
        record(auditor, i)
    # Only the ring's worth is still available, clamped not crashing.
    assert [a.stage_index for a in auditor.records_since(marker)] == [3, 4]


def test_auditor_drives_metrics():
    auditor, registry = make_auditor()
    record(auditor, 0, actual=5000)  # 5x: under-estimate
    record(auditor, 1, actual=1000)  # ok
    snap = registry.snapshot()
    assert snap['audit_stage_records_total{representation="udf-centric"}'] == 2
    assert (
        snap[
            'audit_mispredictions_total{representation="udf-centric",'
            'verdict="under-estimate"}'
        ]
        == 1
    )
    assert snap["audit_estimate_ratio_count"] == 2
    assert auditor.mispredictions()[0].verdict == "under-estimate"


def test_observe_peak_creates_per_engine_histograms():
    auditor, registry = make_auditor()
    auditor.observe_peak("udf-centric", 100 * KB)
    auditor.observe_peak("relation-centric", 10 * KB)
    snap = registry.snapshot()
    assert snap['engine_peak_memory_bytes_count{engine="udf-centric"}'] == 1
    assert snap['engine_peak_memory_bytes_sum{engine="relation-centric"}'] == 10 * KB


def test_audit_rows_align_with_columns():
    auditor, __ = make_auditor()
    record(auditor, 0)
    rows = auditor.rows()
    assert len(rows) == 1
    assert len(rows[0]) == len(AuditRow._fields)
    as_dict = dict(zip(AuditRow._fields, rows[0]))
    assert as_dict["model"] == "m"
    assert as_dict["ratio"] == 1.0
    assert as_dict["verdict"] == "ok"


def test_null_auditor_is_inert():
    auditor = PlanAuditor(MetricsRegistry(), enabled=False)
    assert auditor.enabled is False
    audit = auditor.record_stage("m", 0, "udf-centric", "matmul", 1, 0.1, 1, 1, 1)
    assert audit is None
    auditor.observe_peak("udf-centric", 123)
    assert auditor.rows() == []
    assert auditor.records_since(auditor.marker()) == []


# -- end to end through SQL -------------------------------------------------


def make_fraud_db(**overrides) -> Database:
    db = Database(**overrides)
    __, __, rows = fraud_transactions(120, seed=7)
    columns = ", ".join(f"f{i} DOUBLE" for i in range(28))
    db.execute(f"CREATE TABLE tx (id INT, {columns}, label INT)")
    db.load_rows("tx", rows)
    db.register_model(fraud_fc_256(), name="fraud")
    return db


def test_show_audit_reports_misprediction_after_threshold_crossing():
    # 512 KiB threshold lowers fraud-fc to relation-centric; blockwise
    # execution peaks far under the threshold -> unnecessary-lowering.
    db = make_fraud_db(memory_threshold_bytes=512 * KB)
    try:
        assert db.execute("SHOW AUDIT").rows == []
        db.execute(PREDICT_SQL)
        cur = db.execute("SHOW AUDIT")
        assert cur.columns == AuditRow._fields
        assert len(cur) >= 1
        by_verdict = dict(
            zip(cur.column("verdict"), cur.column("note"))
        )
        assert "unnecessary-lowering" in by_verdict
        assert "under threshold" in by_verdict["unnecessary-lowering"]
        stats = dict(db.execute("SHOW STATS").rows)
        assert stats["audit.records"] >= 1
        assert stats["audit.mispredictions"] >= 1
    finally:
        db.close()


def test_cursor_stats_carry_stage_audits():
    db = make_fraud_db()
    try:
        cur = db.execute(PREDICT_SQL)
        audits = cur.stats.stage_audits
        assert audits, "PREDICT should audit at least one stage"
        assert all(a.actual_peak_bytes > 0 for a in audits)
        assert all(a.estimated_bytes > 0 for a in audits)
        assert "audit:" in cur.stats.render()
        # Stats are per statement: a query with no inference stages does
        # not inherit the earlier PREDICT's audit records.
        plain = db.execute("SELECT id FROM tx")
        assert plain.stats.stage_audits == []
    finally:
        db.close()


def test_audit_disabled_with_telemetry():
    db = Database(telemetry_enabled=False)
    try:
        db.execute("CREATE TABLE t (id INT)")
        assert db.execute("SHOW AUDIT").rows == []
    finally:
        db.close()


def test_show_unknown_target_raises():
    db = Database()
    try:
        with pytest.raises(SqlError, match="SHOW"):
            db.execute("SHOW BOGUS")
        # The planner also rejects an unknown system relation, so an
        # unknown target can never silently fall through to MODELS.
        with pytest.raises(SqlError, match="unknown system relation"):
            db.execute("SELECT * FROM sys.bogus")
    finally:
        db.close()


def test_auditor_record_stage_is_thread_safe():
    import threading

    auditor, registry = make_auditor(max_records=10_000)
    per_thread = 500

    def work(tid: int):
        for i in range(per_thread):
            record(auditor, i, estimated=1000, actual=1000 if i % 2 else 8000)
            auditor.observe_peak(f"engine-{tid % 2}", 4096)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = 6 * per_thread
    # No appends lost: ring, running total, and metrics all agree.
    assert auditor.total_recorded == total
    assert len(auditor) == total
    assert len(auditor.mispredictions()) == total // 2
    snapshot = registry.snapshot()
    recorded = sum(
        v for k, v in snapshot.items() if k.startswith("audit_stage_records_total")
    )
    assert recorded == total
    peaks = sum(
        v
        for k, v in snapshot.items()
        if k.startswith("engine_peak_memory_bytes_count")
    )
    assert peaks == total
