"""Figure 2 — latency reduction for FFNN inference over RDBMS data.

The paper's setup: samples live in the RDBMS; the proposed architecture
runs small FC models in-database (the rule-based optimizer picks the
UDF-centric representation), while the DL-centric baselines pull the rows
through a ConnectorX-style connector into TensorFlow / PyTorch stand-ins.

Expected shape: in-database serving wins for these small models because
the cross-system transfer, not the inference compute, dominates the
baselines — and the gap grows with the number of rows transferred.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.config import mb
from repro.data import feature_column_names, fraud_schema, fraud_transactions
from repro.dlruntime import Connector, ExternalRuntime, MemoryBudget
from repro.engines import DlCentricEngine
from repro.models import encoder_fc, fraud_fc_256, fraud_fc_512
from repro.relational.expressions import ColumnRef
from repro.relational.operators import Project, SeqScan
from repro.relational.schema import ColumnType, Schema

from _util import emit, fmt_seconds, measure, render_table

FRAUD_ROWS = 20_000
ENCODER_ROWS = 6_000


@pytest.fixture(scope="module")
def db():
    # Threshold scaled from the paper's 2 GB-on-61 GB setup: with batch
    # 1024, every Table 1 "small" model stays under 64 MB and fuses into a
    # single UDF, exactly as in Sec. 7.1.
    database = Database(
        buffer_pool_bytes=mb(128),
        memory_threshold_bytes=mb(64),
        dl_memory_limit_bytes=mb(512),
    )
    # Fraud transactions: 28 features.
    __, __, rows = fraud_transactions(FRAUD_ROWS, seed=11)
    database.create_table("tx", fraud_schema())
    database.load_rows("tx", rows)
    # Encoder inputs: 76 features.
    enc_schema = Schema.of(
        ("id", ColumnType.INT),
        *[(f"e{i}", ColumnType.DOUBLE) for i in range(76)],
    )
    enc_rng = np.random.default_rng(12)
    enc_rows = [
        (i, *map(float, enc_rng.normal(size=76))) for i in range(ENCODER_ROWS)
    ]
    database.create_table("enc", enc_schema)
    database.load_rows("enc", enc_rows)
    database.register_model(fraud_fc_256(), name="fraud256")
    database.register_model(fraud_fc_512(), name="fraud512")
    database.register_model(encoder_fc(), name="encoder")
    yield database
    database.close()


WORKLOADS = {
    "fraud-fc-256": ("fraud256", "tx", feature_column_names()),
    "fraud-fc-512": ("fraud512", "tx", feature_column_names()),
    "encoder-fc": ("encoder", "enc", [f"e{i}" for i in range(76)]),
}


def _ours_sql(db: Database, model: str, table: str, cols: list[str]):
    feature_list = ", ".join(cols)
    return db.execute(
        f"SELECT id, PREDICT({model}, {feature_list}) AS pred FROM {table}"
    )


def _dl_centric(db: Database, flavor: str, model_name: str, table: str, cols: list[str]):
    info = db.catalog.get_table(table)
    source = Project(SeqScan(info), [(ColumnRef(c), c) for c in cols])
    engine = DlCentricEngine(
        Connector(db.config.connector),
        ExternalRuntime(flavor, MemoryBudget(mb(2048))),
    )
    model = db.model_info(model_name).model
    return engine.run_from_source(model, source, cols)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_fig2_ours_in_database(benchmark, db, workload):
    """The benchmarked quantity: our adaptive in-database serving."""
    model, table, cols = WORKLOADS[workload]
    plan = db.inference_plan(model, 1024)
    assert plan.is_single_udf  # small models fuse to one UDF (Sec. 7.1)
    cursor = benchmark.pedantic(
        lambda: _ours_sql(db, model, table, cols), rounds=3, iterations=1
    )
    assert len(cursor) == db.catalog.get_table(table).row_count


def test_fig2_comparison_table(db, benchmark, capsys):
    """Reproduce Figure 2's comparison across all three FFNN models."""
    rows = []
    speedups = {}
    trials = 3  # median-of-3 damps scheduler noise on borderline cells
    for workload, (model, table, cols) in WORKLOADS.items():
        ours = sorted(
            measure(lambda: _ours_sql(db, model, table, cols))[1]
            for __ in range(trials)
        )[trials // 2]
        tf_runs = sorted(
            (_dl_centric(db, "tensorflow-sim", model, table, cols) for __ in range(trials)),
            key=lambda r: r.measured_seconds,
        )
        pt_runs = sorted(
            (_dl_centric(db, "pytorch-sim", model, table, cols) for __ in range(trials)),
            key=lambda r: r.measured_seconds,
        )
        tf = tf_runs[trials // 2]
        pt = pt_runs[trials // 2]
        speedups[workload] = (
            tf.measured_seconds / ours,
            pt.measured_seconds / ours,
        )
        rows.append(
            [
                workload,
                fmt_seconds(ours),
                fmt_seconds(tf.measured_seconds),
                fmt_seconds(tf.modeled_total_seconds),
                fmt_seconds(pt.measured_seconds),
                fmt_seconds(pt.modeled_total_seconds),
                f"{speedups[workload][0]:.1f}x / {speedups[workload][1]:.1f}x",
            ]
        )
    benchmark.pedantic(
        lambda: _ours_sql(db, "fraud256", "tx", feature_column_names()),
        rounds=1,
        iterations=1,
    )
    emit(
        capsys,
        render_table(
            "Figure 2: FFNN inference latency over RDBMS data "
            f"({FRAUD_ROWS:,} fraud rows / {ENCODER_ROWS:,} encoder rows)",
            [
                "model",
                "ours (in-DB)",
                "TF-sim measured",
                "TF-sim modeled",
                "PT-sim measured",
                "PT-sim modeled",
                "speedup (TF/PT)",
            ],
            rows,
        ),
    )
    # The paper's claim: in-database serving reduces latency for small
    # models because cross-system transfer dominates the baselines.
    for workload, (tf_speedup, pt_speedup) in speedups.items():
        assert tf_speedup > 1.0, f"{workload}: DL-centric TF beat in-database"
        assert pt_speedup > 1.0, f"{workload}: DL-centric PT beat in-database"


def test_fig2_gap_grows_with_rows(db, benchmark, capsys):
    """The paper's bars widen with data volume: transfer scales with rows
    while the in-database path only pays scan + compute."""
    model, table, cols = WORKLOADS["fraud-fc-256"]
    info = db.catalog.get_table(table)
    full = info.row_count
    results = []
    for fraction in (0.25, 0.5, 1.0):
        limit = int(full * fraction)
        feature_list = ", ".join(cols)

        def ours():
            return db.execute(
                f"SELECT id, PREDICT({model}, {feature_list}) AS p "
                f"FROM {table} LIMIT {limit}"
            )

        __, ours_seconds = measure(ours)
        from repro.relational.operators import Limit, Project, SeqScan
        from repro.relational.expressions import ColumnRef
        from repro.dlruntime import Connector, ExternalRuntime, MemoryBudget
        from repro.engines import DlCentricEngine

        source = Limit(
            Project(SeqScan(info), [(ColumnRef(c), c) for c in cols]), limit
        )
        engine = DlCentricEngine(
            Connector(db.config.connector),
            ExternalRuntime("tensorflow-sim", MemoryBudget(mb(2048))),
        )
        dl = engine.run_from_source(
            db.model_info(model).model, source, cols
        )
        results.append((limit, ours_seconds, dl.measured_seconds))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    emit(
        capsys,
        render_table(
            "Figure 2 (scaling): in-DB vs DL-centric as rows grow "
            "(fraud-fc-256)",
            ["rows", "ours", "TF-sim", "speedup"],
            [
                [n, fmt_seconds(o), fmt_seconds(d), f"{d / o:.2f}x"]
                for n, o, d in results
            ],
        ),
    )
    # Absolute advantage (seconds saved) grows with transferred volume.
    saved = [d - o for __, o, d in results]
    assert saved[-1] > saved[0]
