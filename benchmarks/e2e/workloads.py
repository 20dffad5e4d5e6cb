"""The seven named workloads.

Each workload generates its inputs from the seed in ``__init__`` (not part
of set-up time), builds program state in ``setup`` (what ``setup_s``
times), and measures in ``measure``.  Only public entry points are called
and the program runs with its shipping defaults (telemetry on).

``measure`` returns a dict with ``attempted``, ``failed``, ``samples`` (ops
behind ``op_p50_ms``), the universal end-to-end values ``op_p50_ms`` and
``rows_per_s``, and workload-specific extras (``op_tail_ms``, ``burst_rps``,
``slo_rate_rps``, ``write_p50_ms``, ``write_rows_per_s``, ``peak_mem_mb``).
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

import gen
import quant
from loadgen import Samples, burst, closed_loop, open_loop

from repro import Database, Representation
from repro.config import SystemConfig, mb
from repro.dlruntime import Connector, ExternalRuntime, MemoryBudget
from repro.engines import DlCentricEngine
from repro.models import amazon_14k_fc, fraud_fc_256
from repro.relational.expressions import ColumnRef
from repro.relational.operators import Project, SeqScan
from repro.relational.schema import ColumnType, Schema


def fraud_schema() -> Schema:
    return Schema.of(
        ("id", ColumnType.INT),
        *[(c, ColumnType.DOUBLE) for c in gen.FEATURE_COLS],
        ("label", ColumnType.INT),
    )


def oracle_outputs(model, features: np.ndarray) -> np.ndarray:
    """A plain numpy forward pass: the reference every answer is held to."""
    x = features
    for layer in model.layers:
        x = layer.forward(x)
    return x


def oracle_labels(model, features: np.ndarray) -> np.ndarray:
    return np.argmax(oracle_outputs(model, features), axis=-1)


def latency_summary(samples: Samples, rows: int) -> dict:
    """Closed-loop summary; ``rows`` were predicted by the successful ops.

    ``op_p50_ms`` and ``rows_per_s`` are those of the least disturbed of the
    run's consecutive segments (see :func:`quant.least_disturbed`); the
    plain median and mean rate are kept beside them for the report.
    """
    lat = samples.latency_s
    q = quant.tail_q(lat.size)
    rows_per_op = rows / lat.size
    return {
        "attempted": samples.attempted,
        "failed": samples.failed,
        "samples": int(lat.size),
        "tail_samples": int(lat.size),
        "op_p50_ms": quant.undisturbed_p50(lat) * 1e3,
        "op_p50_all_ms": quant.percentile(lat, 50) * 1e3,
        "op_tail_ms": quant.percentile(lat, q) * 1e3,
        "op_tail_pct": q,
        "rows_per_s": quant.least_disturbed(
            [rows_per_op * part.size / part.sum() for part in quant.split(lat)], True),
        "rows_per_s_all": rows / float(lat.sum()),
        "first_error": samples.first_error,
    }


def meets_slo(samples: Samples, limit_ms: float, backlog_slack: int) -> bool:
    """A rung meets the limit when its tail (the highest percentile the
    sample supports) is within it, nothing failed, and the backlog is not
    growing: at the rung's end it exceeds the midpoint's by at most one batch."""
    lat = samples.latency_s
    if samples.failed or lat.size == 0:
        return False
    return (
        quant.percentile(lat, quant.tail_q(lat.size)) * 1e3 <= limit_ms
        and samples.backlog_end <= samples.backlog_mid + backlog_slack
    )


class Workload:
    name = ""
    loop = ""  # "closed" or "open", with rate or client count, for reports

    def __init__(self, seed: int, seconds: float, scale: float = 1.0):
        self.seed, self.scale = seed, scale
        self.db = None

    def scaled(self, count: int, floor: int = 1) -> int:
        return max(floor, int(count * self.scale))

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, rec=None) -> dict:
        raise NotImplementedError

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None


# -- table scans ---------------------------------------------------------


class ScanPredictIndb(Workload):
    name = "scan_predict_indb"
    loop = "closed, 1 client"
    TABLE_ROWS = 20_000
    WARMUP = 2
    MIN_OPS = 5

    def __init__(self, seed, seconds, scale=1.0):
        super().__init__(seed, seconds, scale)
        self.n = self.scaled(self.TABLE_ROWS, 64)
        self.features, self.rows = gen.fraud_rows(seed, self.n)
        self.model = fraud_fc_256()
        self.oracle = oracle_labels(self.model, self.features)
        self.sql = gen.scan_sql()

    def build(self):
        # Fig. 2 configuration.
        self.db = Database(buffer_pool_bytes=mb(128), memory_threshold_bytes=mb(64))
        self.db.create_table("tx", fraud_schema())
        self.db.load_rows("tx", self.rows)
        self.db.register_model(self.model, name="fraud")
        self.rows_predicted = 0

    def setup(self):
        self.build()
        warm = closed_loop(self.op, self.verify, 0.0, self.WARMUP)
        if warm.failed:
            raise RuntimeError(f"{self.name}: warm-up failed: {warm.first_error}")

    def op(self, i):
        return self.db.execute(self.sql)

    def verify(self, i, cursor) -> bool:
        got = np.array(cursor.fetchall(), dtype=np.int64).reshape(-1, 2)
        self.rows_predicted += got.shape[0]
        return (
            got.shape[0] == self.n
            and np.array_equal(got[:, 0], np.arange(self.n))
            and np.array_equal(got[:, 1], self.oracle)
        )

    def measure(self, seconds, rec=None):
        self.rows_predicted = 0
        samples = closed_loop(self.op, self.verify, seconds, self.MIN_OPS, rec)
        return latency_summary(samples, self.rows_predicted)


class ScanPredictDlcentric(ScanPredictIndb):
    name = "scan_predict_dlcentric"
    MIN_AGREEMENT = 0.999  # the runtime stand-in computes in float32

    def build(self):
        super().build()
        self.info = self.db.catalog.get_table("tx")
        self.engine = DlCentricEngine(
            Connector(self.db.config.connector),
            ExternalRuntime("pytorch-sim", MemoryBudget(mb(2048))),
        )
        self.modeled_s: list[float] = []

    def source(self):
        return Project(SeqScan(self.info), [(ColumnRef(c), c) for c in gen.FEATURE_COLS])

    def op(self, i):
        return self.engine.run_from_source(self.model, self.source(), gen.FEATURE_COLS)

    def verify(self, i, result) -> bool:
        labels = np.argmax(result.outputs, axis=-1)
        self.rows_predicted += labels.shape[0]
        self.modeled_s.append(result.modeled_total_seconds)
        return (
            labels.shape == self.oracle.shape
            and float(np.mean(labels == self.oracle)) >= self.MIN_AGREEMENT
        )

    def measure(self, seconds, rec=None):
        self.modeled_s.clear()
        out = super().measure(seconds, rec)
        out["modeled_op_ms"] = statistics.median(self.modeled_s) * 1e3
        return out


class ScanPredictIngest(ScanPredictIndb):
    name = "scan_predict_ingest"
    loop = "reader closed, 1 client; writer open, 40 stmt/s"
    WRITE_RATE = 40.0
    ROWS_PER_INSERT = 10

    def __init__(self, seed, seconds, scale=1.0):
        super().__init__(seed, seconds, scale)
        # Enough statements for every measured phase of one run, with margin.
        self.due = gen.poisson_schedule(seed, self.WRITE_RATE, 1.5 * seconds + 10.0)
        extra = len(self.due) * self.ROWS_PER_INSERT
        more, rows = gen.fraud_rows(seed, extra, start_id=self.n, stream="inserts")
        self.oracle = np.concatenate([self.oracle, oracle_labels(self.model, more)])
        self.inserts = gen.insert_statements(rows, self.ROWS_PER_INSERT)

    def build(self):
        super().build()
        self.started = 0  # INSERT statements handed to the database
        self.inserted = 0  # rows of the statements that succeeded

    def verify(self, i, cursor) -> bool:
        # A reader may see any whole number of INSERT statements, never part
        # of one, and never more than were started.
        got = np.array(cursor.fetchall(), dtype=np.int64).reshape(-1, 2)
        count = got.shape[0]
        extra = count - self.n
        self.rows_predicted += count
        return (
            0 <= extra <= self.started * self.ROWS_PER_INSERT
            and extra % self.ROWS_PER_INSERT == 0
            and np.array_equal(got[:, 0], np.arange(count))
            and np.array_equal(got[:, 1], self.oracle[:count])
        )

    def measure(self, seconds, rec=None):
        stop = threading.Event()
        first = self.started
        latencies: list[float] = []
        errors: list[str] = []

        def writer():
            begin = time.perf_counter() - self.due[first]
            for j in range(first, len(self.inserts)):
                if stop.wait(max(0.0, begin + self.due[j] - time.perf_counter())):
                    return
                self.started = j + 1
                try:
                    self.db.execute(self.inserts[j])
                except Exception as exc:  # a failed write is a failed op
                    errors.append(repr(exc))
                else:
                    latencies.append(time.perf_counter() - begin - self.due[j])
                    self.inserted += self.ROWS_PER_INSERT

        thread = threading.Thread(target=writer, name="bench-writer")
        begin = time.perf_counter()
        thread.start()
        try:
            self.rows_predicted = 0
            samples = closed_loop(self.op, self.verify, seconds, self.MIN_OPS, rec)
        finally:
            stop.set()
            thread.join()
        wall = time.perf_counter() - begin
        out = latency_summary(samples, self.rows_predicted)
        count = self.db.execute("SELECT COUNT(*) FROM tx").fetchall()[0][0]
        out["attempted"] += self.started - first + 1
        out["failed"] += len(errors) + (count != self.n + self.inserted)
        out["first_error"] = out["first_error"] or "".join(errors[:1])
        out["write_samples"] = len(latencies)
        out["write_p50_ms"] = statistics.median(latencies) * 1e3 if latencies else 0.0
        out["write_rows_per_s"] = len(latencies) * self.ROWS_PER_INSERT / wall
        return out


# -- short statements -------------------------------------------------------


class PointPredictSql(Workload):
    name = "point_predict_sql"
    loop = "closed, 1 client"
    TABLE_ROWS = 32
    STATEMENTS = 20_000
    WARMUP = 200
    MIN_OPS = 200

    def __init__(self, seed, seconds, scale=1.0):
        super().__init__(seed, seconds, scale)
        self.features, self.rows = gen.fraud_rows(seed, self.TABLE_ROWS)
        self.model = fraud_fc_256()
        self.oracle = oracle_labels(self.model, self.features)
        self.keys, self.statements = gen.point_statements(
            seed, self.scaled(self.STATEMENTS, 400), self.TABLE_ROWS
        )
        self.cursor = 0  # statements already used, so texts keep varying

    def setup(self):
        self.db = Database()
        self.db.create_table("tx_small", fraud_schema())
        self.db.load_rows("tx_small", self.rows)
        self.db.register_model(self.model, name="fraud")
        warm = closed_loop(self.op, self.verify, 0.0, self.scaled(self.WARMUP, 20))
        self.cursor += warm.attempted
        if warm.failed:
            raise RuntimeError(f"{self.name}: warm-up failed: {warm.first_error}")

    def op(self, i):
        j = (self.cursor + i) % len(self.statements)
        return j, self.db.execute(self.statements[j])

    def verify(self, i, result) -> bool:
        j, cursor = result
        key = int(self.keys[j])
        return cursor.fetchall() == [(key, int(self.oracle[key]))]

    def measure(self, seconds, rec=None):
        samples = closed_loop(self.op, self.verify, seconds, self.scaled(self.MIN_OPS, 20), rec)
        self.cursor += samples.attempted
        out = latency_summary(samples, samples.latency_s.size)
        q, tail = quant.segment_tail(samples.latency_s)
        out["op_tail_ms"], out["op_tail_pct"] = tail * 1e3, q
        return out


# -- a model larger than the buffer pool ------------------------------------------


class LargeRelcentric(Workload):
    name = "large_relcentric"
    loop = "closed, 1 client"
    BATCH = 1000
    MIN_OPS = 3
    MEMORY_LIMIT_MB = 150

    def __init__(self, seed, seconds, scale=1.0):
        super().__init__(seed, seconds, scale)
        self.model = amazon_14k_fc(scale=0.01)
        self.batch = self.scaled(self.BATCH, 16)
        self.x = gen.feature_batch(seed, self.batch, self.model.input_shape[0])
        self.oracle = oracle_outputs(self.model, self.x)

    def setup(self):
        self.peak_bytes = 0
        # Table 3 configuration: ~49 MB of weights against a 48 MB pool.
        self.db = Database(
            buffer_pool_bytes=mb(48), memory_threshold_bytes=mb(24),
            dl_memory_limit_bytes=mb(self.MEMORY_LIMIT_MB),
            tensor_block_rows=128, tensor_block_cols=128,
        )
        self.db.register_model(self.model, name="amazon")
        stage = self.db.inference_plan("amazon", self.batch).stages[0]
        if stage.representation is not Representation.RELATION_CENTRIC:
            raise RuntimeError(f"{self.name}: stage 0 is {stage.representation}")
        if not self.verify(0, self.op(0)):
            raise RuntimeError(f"{self.name}: wrong answer during warm-up")

    def op(self, i):
        return self.db.predict("amazon", self.x)

    def verify(self, i, result) -> bool:
        self.peak_bytes = max(self.peak_bytes, result.peak_memory_bytes)
        return (
            result.outputs.shape == self.oracle.shape
            and np.allclose(result.outputs, self.oracle, rtol=1e-6)
            and result.peak_memory_bytes < mb(self.MEMORY_LIMIT_MB)
        )

    def measure(self, seconds, rec=None):
        samples = closed_loop(self.op, self.verify, seconds, self.MIN_OPS, rec)
        out = latency_summary(samples, self.batch * samples.latency_s.size)
        out["peak_mem_mb"] = self.peak_bytes / 1e6
        return out


# -- online serving ----------------------------------------------------------------


class ServeThreadOpen(Workload):
    name = "serve_thread_open"
    CONFIG: dict = {}
    SERVE = dict(workers=2, cluster_workers=0, max_batch_size=64, max_queue_delay_ms=2)
    ROWS_PER_REQUEST = 1
    REFERENCE_RATE = 500.0
    OTHER_RATES = (1000.0, 2000.0)
    BURST = 2000
    BURSTS_PER_SECOND = 1.0  # of --seconds; a count, so memory does not depend on speed
    SLO_MS = 10.0
    WARMUP = 200
    # Shares of --seconds: reference rung, each other rung (bursts take the rest).
    REFERENCE_SHARE, RUNG_SHARE = 0.45, 0.175
    # The in-process server's threads share the interpreter lock, so a second
    # core adds no capacity, only a cross-core hand-off whose cost depends on
    # where the scheduler happened to put each thread: left free, identical
    # runs split into a fast and a slow group (p50 0.50 vs 0.73 ms).  One core
    # for the process removes that; the cluster workload keeps both cores.
    ONE_CORE = True
    loop = "open, Poisson, 500/1000/2000 req/s + bursts of 2000"

    def __init__(self, seed, seconds, scale=1.0):
        super().__init__(seed, seconds, scale)
        self.burst_n = self.scaled(self.BURST, 64)
        self.model = fraud_fc_256()
        self.x = gen.feature_batch(seed, self.burst_n * self.ROWS_PER_REQUEST)
        self.oracle = oracle_labels(self.model, self.x)
        self.server = None

    def setup(self):
        self.affinity = os.sched_getaffinity(0)
        if self.ONE_CORE:
            os.sched_setaffinity(0, {min(self.affinity)})  # threads started below inherit it
        self.db = Database(config=SystemConfig(**self.CONFIG))
        self.db.register_model(self.model, name="fraud")
        start = time.perf_counter()
        # The queue must hold a whole burst: no request is refused.
        self.server = self.db.serve(queue_capacity=self.burst_n + 64, **self.SERVE)
        self.serve_start_s = time.perf_counter() - start
        for i in range(self.scaled(self.WARMUP, 20)):
            if not self.verify(i, self.submit(i).result(30.0)):
                raise RuntimeError(f"{self.name}: wrong answer during warm-up")

    def rows_of(self, i) -> slice:
        lo = (i % self.burst_n) * self.ROWS_PER_REQUEST
        return slice(lo, lo + self.ROWS_PER_REQUEST)

    def submit(self, i):
        return self.server.submit("fraud", self.x[self.rows_of(i)])

    def verify(self, i, labels) -> bool:
        return np.array_equal(labels, self.oracle[self.rows_of(i)])

    def rung(self, rate: float, seconds: float, index: int, rec=None) -> Samples:
        due = gen.poisson_schedule(self.seed, rate, seconds, index)
        return open_loop(self.submit, due, self.verify, rec)

    def measure(self, seconds, rec=None):
        # The reference rung runs in three parts, before, between and after
        # the other rungs, so that it samples more than one host state.
        others = {}
        parts = [self.rung(self.REFERENCE_RATE, self.REFERENCE_SHARE / 3 * seconds, 0, rec)]
        for index, rate in enumerate(self.OTHER_RATES, start=1):
            others[rate] = self.rung(rate, self.RUNG_SHARE * seconds, 2 * index - 1)
            parts.append(
                self.rung(self.REFERENCE_RATE, self.REFERENCE_SHARE / 3 * seconds, 2 * index, rec))
        self.reference = parts  # the layer budget reads their futures
        lat = np.concatenate([p.latency_s for p in parts])
        late = np.concatenate([p.late_s for p in parts])
        slack = self.SERVE["max_batch_size"]
        passed = [rate for rate, s in others.items() if meets_slo(s, self.SLO_MS, slack)]
        if all(meets_slo(p, self.SLO_MS, slack) for p in parts):
            passed.append(self.REFERENCE_RATE)
        bursts = [burst(self.submit, self.burst_n, self.verify)
                  for __ in range(max(3, round(self.BURSTS_PER_SECOND * seconds)))]
        phases = parts + list(others.values()) + bursts
        q, tail = quant.segment_tail(lat)
        burst_rates = [self.burst_n / b.wall_s for b in bursts]
        burst_rps = quant.least_disturbed(burst_rates, True)
        return {
            "attempted": sum(p.attempted for p in phases),
            "failed": sum(p.failed for p in phases),
            "samples": int(lat.size),
            "tail_samples": int(lat.size),  # behind open_p50_ms and op_tail_ms
            "op_p50_ms": quant.undisturbed_p50(lat) * 1e3,
            "open_p50_ms": quant.undisturbed_p50(lat) * 1e3,
            "op_p50_all_ms": quant.percentile(lat, 50) * 1e3,
            "op_tail_ms": tail * 1e3,
            "op_tail_pct": q,
            "rows_per_s": burst_rps * self.ROWS_PER_REQUEST,
            "burst_rps": burst_rps,
            "burst_rps_all": burst_rates,
            "burst_samples": len(bursts),
            # 0 when even the lowest rung misses the limit.
            "slo_rate_rps": max(passed, default=0.0),
            "rung_p50_ms": {
                f"{rate:g}": float(np.median(s.latency_s)) * 1e3 if s.latency_s.size else None
                for rate, s in others.items()
            },
            "generator_late_ms_tail": quant.percentile(late, quant.tail_q(late.size)) * 1e3,
            "first_error": next((p.first_error for p in phases if p.first_error), ""),
        }

    def teardown(self):
        self.server = None
        super().teardown()  # closing the database drains and stops the server
        os.sched_setaffinity(0, self.affinity)


class ServeClusterOpen(ServeThreadOpen):
    name = "serve_cluster_open"
    # Forces the relation-centric path, which holds the interpreter lock.
    CONFIG = dict(memory_threshold_bytes=1)
    SERVE = dict(workers=2, cluster_workers=2, max_batch_size=16, max_queue_delay_ms=0)
    ROWS_PER_REQUEST = 16
    REFERENCE_RATE = 300.0
    OTHER_RATES = (150.0, 600.0)
    BURST = 600
    BURSTS_PER_SECOND = 0.3
    SLO_MS = 25.0
    WARMUP = 50
    ONE_CORE = False  # the worker processes are the point: they need both cores
    # Shares of --seconds.  With several requests in flight this workload has
    # more runnable threads and processes than the host has cores, and its
    # open-loop median and burst rate then read the scheduler and whatever the
    # neighbours leave of the two cores (10-seed spread 15-30 % against a 25 %
    # bound; 7 % on the quietest host).  One request in flight crosses the same
    # front end, pool, shared memory and worker and repeats to 2-3 %: the gated
    # ``op_p50_ms`` and ``rows_per_s`` come from that, in two parts around the
    # open-loop phases, whose numbers stay in the report (``e2e.*``), ungated.
    LONE_SHARE, REFERENCE_SHARE, RUNG_SHARE = 0.25, 0.40, 0.125
    LONE_MIN_OPS = 20
    loop = "closed, 1 client (gated); open, Poisson, 150/300/600 req/s + bursts of 600"

    def lone(self, seconds: float) -> Samples:
        return closed_loop(lambda i: self.submit(i).result(30.0), self.verify,
                           seconds, self.scaled(self.LONE_MIN_OPS, 5))

    def measure(self, seconds, rec=None):
        before = self.lone(self.LONE_SHARE / 2 * seconds)
        out = super().measure(seconds, rec)
        after = self.lone(self.LONE_SHARE / 2 * seconds)
        lat = np.concatenate([before.latency_s, after.latency_s])
        alone = latency_summary(
            Samples(lat, before.attempted + after.attempted, before.failed + after.failed,
                    before.wall_s + after.wall_s,
                    first_error=before.first_error or after.first_error),
            self.ROWS_PER_REQUEST * lat.size)
        out.update(
            attempted=out["attempted"] + alone["attempted"],
            failed=out["failed"] + alone["failed"],
            first_error=out["first_error"] or alone["first_error"],
            samples=alone["samples"], op_p50_ms=alone["op_p50_ms"],
            lone_p50_all_ms=alone["op_p50_all_ms"],
            rows_per_s=alone["rows_per_s"], rows_per_s_all=alone["rows_per_s_all"],
        )
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (
        ScanPredictIndb, ScanPredictDlcentric, PointPredictSql, LargeRelcentric,
        ServeThreadOpen, ServeClusterOpen, ScanPredictIngest,
    )
}
