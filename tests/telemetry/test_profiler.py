"""The sampling stage profiler and collapsed-stack export."""

from __future__ import annotations

import re
import threading
import time

import numpy as np
import pytest

from repro import Database
from repro.errors import TelemetryError
from repro.models import fraud_fc_256
from repro.telemetry.profiler import (
    ROOT_FRAME,
    ProfileRow,
    StageProfiler,
)

#: Frames the engine emits: "<model>;stage<i>:<representation>".
FRAME_RE = re.compile(r"^[\w.-]+;stage\d+:[\w-]+$")


def parse_collapsed(lines):
    """A minimal folded-stack parser (the flamegraph.pl input contract):
    every line is semicolon-joined frames, one space, an integer count."""
    out = {}
    for line in lines:
        stack, count = line.rsplit(" ", 1)
        frames = stack.split(";")
        assert frames and all(frames), line
        out[tuple(frames)] = out.get(tuple(frames), 0) + int(count)
    return out


def test_validation():
    with pytest.raises(TelemetryError):
        StageProfiler(interval_ms=0)
    with pytest.raises(TelemetryError):
        StageProfiler(max_frames=0)


def test_sampler_attributes_marked_frames():
    profiler = StageProfiler(interval_ms=1.0)
    assert profiler.start()
    assert not profiler.start(), "second start is a no-op"
    profiler.enter("m;stage0:dl-centric")
    deadline = time.monotonic() + 5.0
    while profiler.sampled < 5 and time.monotonic() < deadline:
        time.sleep(0.01)
    profiler.exit()
    assert profiler.stop()
    assert not profiler.stop(), "second stop is a no-op"
    rows = profiler.top_rows()
    assert rows and rows[0][0] == "m;stage0:dl-centric"
    row = dict(zip(ProfileRow._fields, rows[0]))
    assert row["samples"] >= 5
    assert row["share"] == pytest.approx(1.0)
    assert row["est_ms"] == pytest.approx(row["samples"] * 1.0)


def test_hooks_are_noops_while_stopped():
    profiler = StageProfiler(interval_ms=1.0)
    profiler.enter("m;stage0:dl-centric")
    profiler.exit()
    assert profiler._active == {}
    assert profiler.top_rows() == []


def test_idle_ticks_counted_without_marked_frames():
    profiler = StageProfiler(interval_ms=1.0)
    profiler.start()
    deadline = time.monotonic() + 5.0
    while profiler.ticks < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    profiler.stop()
    assert profiler.ticks >= 3
    assert profiler.idle_ticks == profiler.ticks
    assert profiler.sampled == 0


def test_per_thread_attribution():
    profiler = StageProfiler(interval_ms=1.0)
    profiler.start()
    stop = threading.Event()

    def work(frame):
        profiler.enter(frame)
        stop.wait(5.0)
        profiler.exit()

    threads = [
        threading.Thread(target=work, args=(f"m;stage{i}:udf-centric",))
        for i in range(3)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + 5.0
    while profiler.sampled < 9 and time.monotonic() < deadline:
        time.sleep(0.01)
    stop.set()
    for t in threads:
        t.join()
    profiler.stop()
    frames = {row[0] for row in profiler.top_rows()}
    assert frames == {f"m;stage{i}:udf-centric" for i in range(3)}


def test_frame_overflow_goes_to_other():
    profiler = StageProfiler(interval_ms=1.0, max_frames=1)
    profiler.start()
    profiler.enter("m;stage0:dl-centric")
    deadline = time.monotonic() + 5.0
    while profiler.sampled < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    profiler.exit()
    profiler.enter("m;stage1:dl-centric")  # second distinct frame: overflow
    while (
        not any(r[0] == "<other>" for r in profiler.top_rows())
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    profiler.exit()
    profiler.stop()
    frames = {row[0] for row in profiler.top_rows()}
    assert frames == {"m;stage0:dl-centric", "<other>"}


def test_collapsed_export_round_trips(tmp_path):
    profiler = StageProfiler(interval_ms=1.0)
    profiler.start()
    profiler.enter("fraud;stage0:dl-centric")
    deadline = time.monotonic() + 5.0
    while profiler.sampled < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    profiler.exit()
    profiler.stop()
    path = tmp_path / "profile.folded"
    lines_written = profiler.export(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == lines_written == 1
    stacks = parse_collapsed(lines)
    ((frames, count),) = stacks.items()
    assert frames == (ROOT_FRAME, "fraud", "stage0:dl-centric")
    assert count >= 3


def test_null_profiler_is_inert(tmp_path):
    profiler = StageProfiler(enabled=False)
    assert not profiler.start()
    profiler.enter("x")
    profiler.exit()
    assert profiler.top_rows() == [] and profiler.collapsed() == []
    assert profiler.export(str(tmp_path / "p.folded")) == 0


# -- end-to-end through Database -----------------------------------------


@pytest.fixture
def db():
    database = Database(profiler_interval_ms=1.0)
    database.register_model(fraud_fc_256(), name="fraud")
    yield database
    database.close()


def test_profile_attributes_samples_to_real_plan_stages(db, tmp_path):
    rng = np.random.default_rng(5)
    features = rng.normal(size=(512, 28))
    assert db.start_profiler()
    deadline = time.monotonic() + 30.0
    while (
        db.telemetry.profiler.sampled < 10 and time.monotonic() < deadline
    ):
        db.predict_labels("fraud", features)
    assert db.stop_profiler()
    rows = db.execute("SHOW PROFILE").fetchall()
    assert rows, "sampler must have caught executing stages"
    # >= 90% of sampled time must land on well-formed plan-stage frames.
    total = sum(row[1] for row in rows)
    attributed = sum(row[1] for row in rows if FRAME_RE.match(row[0]))
    assert attributed / total >= 0.9
    assert any(";stage0:" in row[0] for row in rows)
    # Export is accepted by a collapsed-stack parser.
    path = tmp_path / "db.folded"
    assert db.export_profile(str(path)) == len(rows)
    stacks = parse_collapsed(path.read_text().splitlines())
    assert sum(stacks.values()) == total


def test_profiler_enabled_config_autostarts():
    db = Database(profiler_enabled=True, profiler_interval_ms=1.0)
    try:
        assert db.telemetry.profiler.running
    finally:
        db.close()
    assert not db.telemetry.profiler.running, "close() stops the sampler"


def test_profiler_disabled_with_telemetry_off(tmp_path):
    db = Database(telemetry_enabled=False)
    try:
        assert not db.start_profiler()
        assert db.execute("SHOW PROFILE").fetchall() == []
        path = tmp_path / "off.folded"
        assert db.export_profile(str(path)) == 0
        assert path.exists() and path.read_text() == ""
    finally:
        db.close()
