"""The traced pass: an outside-in layer budget for one workload.

No file under ``src/`` is instrumented.  The pass runs the workload
untraced (the baseline, and the workload-specific end-to-end extras), runs
it again with the span recorder on, and then *replays* each layer's public
call on the same inputs, timing it from outside.  Replays are cumulative
(``list(Project(SeqScan(t)))`` contains ``list(SeqScan(t))`` contains
``t.heap.scan()``), so a layer's own time is its replay minus the replay
of the layer below.  What the replays do not explain is reported as
``bench.unattributed_share`` instead of being assigned to a layer.

Each probe is fail-soft: if a later refactor removes a call a probe uses,
its metrics read 0 and the error is listed in ``layers.json``.
"""

from __future__ import annotations

import statistics
import time
import traceback

import numpy as np

import gen
import quant
from spans import Recorder, self_time_by_name

LAYERS = ("sql", "core", "storage", "relational", "dlruntime", "engines",
          "tensor", "lifecycle", "server", "cluster")

# Shares of --seconds: untraced run, traced run; replays take the rest.
UNTRACED_SHARE, TRACED_SHARE = 0.4, 0.2
REPLAY_REPEATS = 3
INSERT_PROBE_ROWS = 2000


def timed(rec: Recorder, name: str, fn, repeats: int = REPLAY_REPEATS):
    """``(median seconds, last result)`` of ``repeats`` calls, one span each."""
    times, result = [], None
    for rep in range(repeats):
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        rec.add(f"replay:{name}", start, end, op_id=rep)
        times.append(end - start)
    return statistics.median(times), result


def pool_delta(db, fn) -> dict:
    """Buffer-pool counters moved by one call of ``fn``."""
    stats = db.buffer_pool.stats

    def counters():
        return np.array([stats.hits, stats.misses, stats.evictions, stats.dirty_writebacks])

    before = counters()
    fn()
    hits, misses, evictions, writebacks = (counters() - before).tolist()
    touched = hits + misses
    return {
        "storage.pool_hit_ratio": hits / touched if touched else 0.0,
        "storage.pool_misses": misses,
        "storage.pool_evictions": evictions,
        "storage.pool_writebacks": writebacks,
        "storage.pages_per_op": touched,
    }


# -- replays shared by several workloads ---------------------------------------


def rounds(rec, steps, repeats: int = REPLAY_REPEATS) -> dict[str, list[float]]:
    """Run the ``(name, fn)`` steps in order, ``repeats`` times over.

    Cumulative replays are differenced round by round (see :func:`own`), so
    the two sides of each subtraction were measured next to each other.
    """
    times: dict[str, list[float]] = {name: [] for name, __ in steps}
    for rep in range(repeats):
        for name, fn in steps:
            start = time.perf_counter()
            fn()
            end = time.perf_counter()
            rec.add(f"replay:{name}", start, end, op_id=rep)
            times[name].append(end - start)
    return times


def own(times: dict, outer: str, inner: str | None = None) -> float:
    """Median seconds of ``outer`` minus, round by round, ``inner``."""
    if inner is None:
        return statistics.median(times[outer])
    return max(statistics.median(o - i for o, i in zip(times[outer], times[inner])), 0.0)


def table_replays(rec, db, table: str, columns: list[str], outer=()):
    """Storage and relational replays over one heap table.

    Returns ``(metrics, times)``; ``times`` holds per-round seconds of the
    cumulative chain ``scan`` (heap scan incl. deserialize) < ``seqscan`` <
    ``project``, followed by any ``outer`` steps the caller appends.
    """
    from repro.relational.expressions import ColumnRef
    from repro.relational.operators import Project, SeqScan

    info = db.catalog.get_table(table)
    serde = info.heap.serde
    rows = [row for __, row in info.heap.scan()]
    n = max(len(rows), 1)
    ser, payloads = timed(rec, "storage.serialize", lambda: [serde.serialize(r) for r in rows])
    des, __ = timed(rec, "storage.deserialize", lambda: [serde.deserialize(p) for p in payloads])
    del rows, payloads
    items = [(ColumnRef(c), c) for c in columns]
    times = rounds(rec, [
        ("scan", lambda: sum(1 for __ in info.heap.scan())),
        ("seqscan", lambda: sum(1 for __ in SeqScan(info))),
        ("project", lambda: sum(1 for __ in Project(SeqScan(info), items))),
        *outer,
    ])
    metrics = {
        "storage.scan_rows_per_op": n,
        "storage.serialize_us_per_row": ser / n * 1e6,
        "storage.deserialize_us_per_row": des / n * 1e6,
        "storage.scan_us_per_row": own(times, "scan") / n * 1e6,
        "relational.seqscan_us_per_row": own(times, "seqscan", "scan") / n * 1e6,
        "relational.project_us_per_row": own(times, "project", "seqscan") / n * 1e6,
    }
    return metrics, times


def insert_probe(rec, db, rows: list[tuple], schema) -> dict:
    sample = rows[:INSERT_PROBE_ROWS]

    def load() -> float:
        db.create_table("bench_scratch", schema)
        try:
            return timed(rec, "storage.insert",
                         lambda: db.load_rows("bench_scratch", sample), repeats=1)[0]
        finally:
            db.execute("DROP TABLE bench_scratch")

    seconds = statistics.median(load() for __ in range(REPLAY_REPEATS))
    return {"storage.insert_us_per_row": seconds / len(sample) * 1e6}


def predict_replays(rec, db, model: str, batches: list[np.ndarray]) -> dict:
    """Seconds for one pass over ``batches`` through the routed entry point
    (what SQL PREDICT and the server call), the direct one, and planning."""
    routed, __ = timed(rec, "lifecycle.predict_labels",
                       lambda: [db.predict_labels(model, b) for b in batches])
    direct, __ = timed(rec, "engines.predict",
                       lambda: [np.argmax(db.predict(model, b).outputs, axis=-1) for b in batches])
    plan, __ = timed(rec, "core.optimize",
                     lambda: [db.inference_plan(model, len(b)) for b in batches])
    return {"routed": routed, "direct": direct, "optimize": plan}


def predict_layers(p: dict, per: int = 1) -> dict:
    return {
        "core": p["optimize"] / per,
        "lifecycle": max(p["routed"] - p["direct"], 0.0) / per,
        "engines": max(p["direct"] - p["optimize"], 0.0) / per,
    }


def sql_budget(rec, w, texts: list[str], table: str, batches: list[np.ndarray]):
    """Budget of ``db.execute(SELECT ... PREDICT ...)``, per statement.

    Returns ``(metrics, layer seconds, wall seconds)``; the wall is the real
    statement timed in the same rounds as the replays it is compared with.
    """
    from repro.sql import Planner, parse, tokenize

    db, per = w.db, len(texts)
    tok, __ = timed(rec, "sql.tokenize", lambda: [tokenize(t) for t in texts])
    par, stmts = timed(rec, "sql.parse", lambda: [parse(t) for t in texts])
    # The same planner with the engine stubbed out: planning and the whole
    # operator tree (scan, filter, feature matrix, output rows), no inference.
    stub = Planner(db.catalog, predict_fn=lambda m, f, p: np.zeros(len(f), dtype=np.int64))
    pln, plans = timed(rec, "sql.plan", lambda: [stub.plan_select(s) for s in stmts])
    metrics, times = table_replays(rec, db, table, ["id"] + gen.FEATURE_COLS, [
        ("execute", lambda: [sum(1 for __ in op) for op in plans]),
        ("op", lambda: [db.execute(t) for t in texts]),
    ])
    pred = predict_replays(rec, db, "fraud", batches)
    # ``execute`` and ``op`` run ``per`` statements, each scanning the table once.
    wall = own(times, "op") / per
    relational = statistics.median(
        e / per - s for e, s in zip(times["execute"], times["scan"]))
    residual = statistics.median(
        e / per - p for e, p in zip(times["execute"], times["project"]))
    metrics.update({
        "sql.tokenize_us": tok / per * 1e6,
        "sql.parse_us": par / per * 1e6,
        "sql.plan_us": pln / per * 1e6,
        "core.optimize_us": pred["optimize"] / len(batches) * 1e6,
        "lifecycle.route_us": max(pred["routed"] - pred["direct"], 0.0) / len(batches) * 1e6,
        "relational.residual_share": max(residual, 0.0) / wall,
    })
    layers = {
        "sql": (par + pln) / per,
        "storage": own(times, "scan"),
        "relational": max(relational, 0.0),
        **predict_layers(pred, per),
    }
    return metrics, layers, wall


# -- one budget per workload: (metrics, layer seconds per op, op wall seconds) -----


def budget_scan_indb(rec, w, untraced):
    chunk = 1024  # the planner's PREDICT batch size
    batches = [w.features[i:i + chunk] for i in range(0, w.n, chunk)]
    metrics, layers, wall = sql_budget(rec, w, [w.sql], "tx", batches)
    whole, __ = timed(rec, "engines.predict_all", lambda: w.db.predict("fraud", w.features))
    metrics["engines.udf_us_per_row_b20000"] = whole / w.n * 1e6
    metrics.update(pool_delta(w.db, lambda: w.op(0)))
    metrics.update(insert_probe(rec, w.db, w.rows, w.db.catalog.get_table("tx").schema))
    return metrics, layers, wall


def budget_scan_dlcentric(rec, w, untraced):
    extracted = []
    metrics, times = table_replays(rec, w.db, "tx", gen.FEATURE_COLS, [
        ("extract", lambda: extracted.append(w.engine.connector.extract(w.source()))),
        ("op", lambda: w.op(0)),
    ])
    result = extracted[-1]
    fm, x = timed(rec, "engines.feature_matrix", lambda: result.feature_matrix(gen.FEATURE_COLS))
    handle = w.engine.runtime.load_model(w.model)
    run, __ = timed(rec, "dlruntime.runtime_run", lambda: w.engine.runtime.run(handle, x))
    connector = own(times, "extract", "project")
    metrics.update({
        "dlruntime.extract_ms": connector * 1e3,
        "dlruntime.extract_bytes": result.wire_bytes,
        "dlruntime.runtime_run_ms": run * 1e3,
        "dlruntime.modeled_wire_ms": result.modeled_wire_seconds * 1e3,
    })
    metrics.update(pool_delta(w.db, lambda: w.op(0)))
    layers = {
        "storage": own(times, "scan"),
        "relational": own(times, "project", "scan"),
        "dlruntime": connector + run,
        "engines": fm,
    }
    return metrics, layers, own(times, "op")


def budget_point(rec, w, untraced):
    sample = range(w.cursor, w.cursor + 100)
    idx = [j % len(w.statements) for j in sample]
    texts = [w.statements[j] for j in idx]
    batches = [w.features[int(w.keys[j])][None, :] for j in idx]
    metrics, layers, wall = sql_budget(rec, w, texts, "tx_small", batches)
    direct, __ = timed(rec, "engines.predict_b1",
                       lambda: [w.db.predict("fraud", b) for b in batches])
    metrics["engines.udf_us_per_row_b1"] = direct / len(batches) * 1e6
    metrics.update(pool_delta(w.db, lambda: w.op(0)))
    return metrics, layers, wall


def budget_large(rec, w, untraced):
    from repro.engines import RelationCentricEngine
    from repro.tensor import (BlockedMatrix, block_scan_from_matrix,
                              block_scan_from_table, drain_to_matrix, matmul_pipeline)

    db = w.db
    opt, __ = timed(rec, "core.optimize", lambda: db.inference_plan("amazon", w.batch))
    info = db.model_info("amazon")
    fc1 = w.model.layers[0]
    weights = db.catalog.get_table(info.block_tables[fc1.name])
    shape = (db.config.tensor_block_rows, db.config.tensor_block_cols)
    engine = RelationCentricEngine(db.catalog, db.config)

    def matmul():
        a = block_scan_from_matrix(BlockedMatrix.from_dense(w.x, shape), "a")
        b = block_scan_from_table(weights, "b")
        return drain_to_matrix(matmul_pipeline(a, b), (w.batch, fc1.out_features), shape)

    # Cumulative: the weight-block scan < the layer-0 matmul < the engine < the op.
    times = rounds(rec, [
        ("scan", lambda: sum(1 for __ in weights.heap.scan())),
        ("matmul", matmul),
        ("engine", lambda: engine.run_vector_stage(w.model.layers, w.x, info)),
        ("op", lambda: w.op(0)),
    ])
    metrics = {
        "core.optimize_us": opt * 1e6,
        "tensor.blocked_matmul_ms": own(times, "matmul") * 1e3,
        "engines.relcentric_ms_b1000": untraced["op_p50_ms"],
        "storage.block_rows_per_op": sum(1 for __ in weights.heap.scan()),
    }
    metrics.update(pool_delta(db, lambda: w.op(0)))
    layers = {
        "core": opt,
        "storage": own(times, "scan"),
        "tensor": own(times, "matmul", "scan"),
        "engines": own(times, "engine", "matmul"),
    }
    return metrics, layers, own(times, "op")


def server_numbers(w) -> tuple[dict, dict]:
    """Server-side medians from the reference rung's futures."""
    futures = [f for part in w.reference for f in part.futures]
    submit_s = np.concatenate([part.submit_s for part in w.reference])
    queue_s = np.array([f.queue_seconds for f in futures])
    execute_s = np.array([f.execute_seconds for f in futures])
    stats = dict(w.server.stats_rows())
    metrics = {
        "server.submit_us": float(np.median(submit_s)) * 1e6,
        "server.queue_ms_p50": quant.percentile(queue_s, 50) * 1e3,
        "server.queue_ms_tail": quant.percentile(queue_s, quant.tail_q(queue_s.size)) * 1e3,
        "server.execute_ms_p50": quant.percentile(execute_s, 50) * 1e3,
        "server.mean_batch_rows": stats["server.model.fraud.mean_batch_rows"],
        "server.largest_batch_rows": stats["server.model.fraud.largest_batch_rows"],
        "server.shed_total": stats["server.requests.shed"],
        "server.retries_total": stats["server.retries"],
    }
    medians = {"submit": float(np.median(submit_s)),
               "queue": float(np.median(queue_s)),
               "execute": float(np.median(execute_s))}
    return metrics, medians


def budget_serve_thread(rec, w, untraced):
    metrics, med = server_numbers(w)
    one = [w.x[:1]] * 200
    pred = predict_replays(rec, w.db, "fraud", one)
    b64, __ = timed(rec, "engines.predict_b64",
                    lambda: [w.db.predict("fraud", w.x[:64]) for __ in range(50)])
    metrics.update({
        "engines.udf_us_per_row_b1": pred["direct"] / len(one) * 1e6,
        "engines.udf_us_per_row_b64": b64 / 50 / 64 * 1e6,
        "core.optimize_us": pred["optimize"] / len(one) * 1e6,
        "lifecycle.route_us": max(pred["routed"] - pred["direct"], 0.0) / len(one) * 1e6,
    })
    metrics.update(pool_delta(w.db, lambda: w.submit(0).result(30.0)))
    layers = predict_layers(pred, len(one))
    layers["server"] = med["submit"] + med["queue"] + max(
        med["execute"] - pred["routed"] / len(one), 0.0)
    return metrics, layers, untraced["op_p50_all_ms"] / 1e3


def budget_serve_cluster(rec, w, untraced):
    from repro.cluster import shm

    metrics, med = server_numbers(w)
    pool = w.server.cluster
    x16 = w.x[:w.ROWS_PER_REQUEST]
    rtt, __ = timed(rec, "cluster.predict", lambda: pool.predict("fraud", x16), 100)
    local, __ = timed(rec, "engines.predict_b16", lambda: w.db.predict("fraud", x16), 20)
    opt, __ = timed(rec, "core.optimize", lambda: w.db.inference_plan("fraud", len(x16)), 200)
    segments: list = []

    def share():
        ref, seg = shm.share_array(x16, f"bench{time.perf_counter_ns()}", pool.shm_max_bytes)
        segments.append(seg)
        return ref

    try:
        share_s, ref = timed(rec, "cluster.shm_share", share, repeats=100)
        read_s, __ = timed(rec, "cluster.shm_read", lambda: shm.read_array(ref), 100)
    finally:
        for seg in segments:
            shm.release(seg)
    counters = pool.snapshot()["counters"]
    metrics.update({
        "cluster.rtt_ms_p50": rtt * 1e3,
        "cluster.shm_share_us": share_s * 1e6,
        "cluster.shm_read_us": read_s * 1e6,
        "cluster.shm_fallback_total": counters["shm_fallbacks"],
        "cluster.respawns_total": counters["respawns"],
        "cluster.pool_start_s": w.serve_start_s,
        "engines.relcentric_ms_b16": local * 1e3,
        "core.optimize_us": opt * 1e6,
        "cluster.speedup_vs_thread": untraced["burst_rps"] / thread_mode_burst_rps(w),
    })
    metrics.update(pool_delta(w.db, lambda: w.submit(0).result(30.0)))
    layers = {
        "server": med["submit"] + med["queue"] + max(med["execute"] - rtt, 0.0),
        "cluster": max(rtt - local, 0.0),
        "engines": max(local - opt, 0.0),
        "core": opt,
    }
    return metrics, layers, untraced["op_p50_all_ms"] / 1e3


def thread_mode_burst_rps(w) -> float:
    """The same 16-row burst with ``cluster_workers=0`` (a second database)."""
    from loadgen import burst
    from repro import Database
    from repro.config import SystemConfig

    n = max(w.burst_n // 3, 16)
    db = Database(config=SystemConfig(**w.CONFIG))
    try:
        db.register_model(w.model, name="fraud")
        server = db.serve(queue_capacity=n + 64, **{**w.SERVE, "cluster_workers": 0})
        submit = lambda i: server.submit("fraud", w.x[w.rows_of(i)])
        burst(submit, 16, w.verify)  # warm-up
        samples = burst(submit, n, w.verify)
    finally:
        db.close()
    if samples.failed:
        raise RuntimeError(f"thread-mode burst failed: {samples.first_error}")
    return n / samples.wall_s


BUDGETS = {
    "scan_predict_indb": budget_scan_indb,
    "scan_predict_dlcentric": budget_scan_dlcentric,
    "point_predict_sql": budget_point,
    "large_relcentric": budget_large,
    "serve_thread_open": budget_serve_thread,
    "serve_cluster_open": budget_serve_cluster,
    # The budget of the reader's query, taken while the writer is off.
    "scan_predict_ingest": budget_scan_indb,
}

#: Workload-specific end-to-end values, reported as ``e2e.<name>`` from the
#: untraced run (they have no meaning on every workload, so they cannot be
#: gated end-to-end metrics; see README.md).
EXTRAS = ("open_p50_ms", "op_tail_ms", "op_tail_pct", "burst_rps", "slo_rate_rps", "write_p50_ms",
          "write_rows_per_s", "peak_mem_mb")


def traced_pass(w, seconds: float):
    """``(per-layer values, detail, spans)`` for an already set-up workload."""
    untraced = w.measure(UNTRACED_SHARE * seconds)
    rec = Recorder()
    traced = w.measure(TRACED_SHARE * seconds, rec)
    wall_s = untraced["op_p50_all_ms"] / 1e3
    values = {f"e2e.{k}": untraced.get(k, 0.0) for k in EXTRAS}
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    values["e2e.fail_share"] = failed / attempted
    values["bench.trace_overhead_ratio"] = traced["op_p50_all_ms"] / untraced["op_p50_all_ms"]
    values["bench.generator_late_ms_tail"] = untraced.get("generator_late_ms_tail", 0.0)
    errors = []
    layers: dict = {}
    try:
        metrics, layers, wall_s = BUDGETS[w.name](rec, w, untraced)
        values.update(metrics)
    except Exception:  # fail-soft: the probes read program internals
        errors.append(traceback.format_exc())
    for layer in LAYERS:
        values[f"share.{layer}"] = layers.get(layer, 0.0) / wall_s
    if "request" in (own := self_time_by_name(rec.spans)):
        # Open loop: the part of [due, done] no child span covers.
        total = sum(end - start for __, name, start, end, *__r in rec.spans if name == "request")
        values["bench.unattributed_share"] = own["request"] / total
    else:
        values["bench.unattributed_share"] = 1.0 - sum(layers.values()) / wall_s
    detail = {
        "attempted": attempted, "failed": failed,
        "op_wall_ms": wall_s * 1e3, "untraced": untraced, "traced": traced,
        "layer_seconds_per_op": layers, "probe_errors": errors,
    }
    return values, detail, rec.spans
