"""The whole set: every workload in a fresh subprocess, one table, results files.

Reached through ``run.py`` without ``--workload``.  A fresh process per
workload keeps ``peak_rss_mb`` and every cache per-workload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import hostinfo
from _util import render_table

HERE = os.path.dirname(os.path.abspath(__file__))

#: Shown beside a value in the table: which detail field holds its sample count.
SAMPLE_COUNTS = {"op_p50_ms": "samples", "rows_per_s": "samples", "setup_s": "setup_samples",
                 "open_p50_ms": "tail_samples", "op_tail_ms": "tail_samples",
                 "burst_rps": "burst_samples",
                 "write_p50_ms": "write_samples", "write_rows_per_s": "write_samples"}
#: Workload-specific values printed under the gated ones, with their units.
EXTRAS = {"open_p50_ms": "ms", "op_tail_ms": "ms", "burst_rps": "req/s", "slo_rate_rps": "req/s",
          "write_p50_ms": "ms", "write_rows_per_s": "rows/s", "peak_mem_mb": "MB",
          "modeled_op_ms": "ms"}


def launch(workload: str, seed: int, seconds: float, trace: int, quick: bool,
           out_dir: str) -> subprocess.Popen:
    """Start one workload in a process of its own."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir]
    if quick:
        cmd.append("--quick")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def collect(proc: subprocess.Popen, workload: str, trace: int, out_dir: str) -> dict:
    """Wait for a launched workload; returns the document it wrote."""
    try:
        __, stderr = proc.communicate(timeout=900)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}:\n{stderr[-4000:]}")
    kind = "layers" if trace else "result"
    with open(os.path.join(out_dir, f"{workload}.{kind}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_set(declared: dict, seed: int, seconds: float, trace: bool, quick: bool,
            out_dir: str) -> dict:
    """Every declared workload once (twice with ``trace``: untraced, then traced)."""
    workloads, layers = {}, {}
    for w in declared["workloads"]:
        name = w["name"]
        print(f"[seed {seed}] {name} ...", file=sys.stderr, flush=True)
        untraced = launch(name, seed, seconds, 0, quick, out_dir)
        if not quick:  # a smoke run may share the host; a measurement may not
            workloads[name] = collect(untraced, name, 0, out_dir)
        if trace:
            layers[name] = collect(launch(name, seed, seconds, 1, quick, out_dir),
                                   name, 1, out_dir)
        if quick:
            workloads[name] = collect(untraced, name, 0, out_dir)
    return {"seed": seed, "workloads": workloads, "layers": layers,
            "derived": derived(workloads, layers)}


def derived(workloads: dict, layers: dict) -> dict:
    """Printed and stored, never gated."""
    out = {}
    indb = workloads.get("scan_predict_indb")
    dl = workloads.get("scan_predict_dlcentric")
    if indb and dl:
        base = indb["detail"]["op_p50_ms"]
        out["fig2_speedup_measured"] = dl["detail"]["op_p50_ms"] / base
        out["fig2_speedup_modeled"] = dl["detail"]["modeled_op_ms"] / base
        out["fig2_speedup_base"] = "scan_predict_indb op_p50_ms"
    cluster = layers.get("serve_cluster_open")
    if cluster:
        out["cluster_speedup_vs_thread"] = (
            cluster["metrics"]["cluster.speedup_vs_thread"]["value"])
    return out


def table(declared: dict, one_set: dict) -> str:
    rows = []
    for name, doc in one_set["workloads"].items():
        detail = doc["detail"]
        for m in declared["end_to_end"]:
            count = detail.get(SAMPLE_COUNTS.get(m["name"], ""), "-")
            rows.append([name, m["name"], f"{doc['metrics'][m['name']]['value']:.4g}",
                         m["unit"], count])
        for key, unit in EXTRAS.items():
            if key == "op_tail_ms" and detail["op_tail_pct"] == 50:
                continue  # too few ops for any percentile above the median
            if key in detail:
                label = key
                if key == "op_tail_ms":
                    label = f"op_p{detail['op_tail_pct']:g}_ms"
                rows.append([name, label, f"{detail[key]:.4g}", unit,
                             detail.get(SAMPLE_COUNTS.get(key, ""), "-")])
        share = doc["failed"] / doc["attempted"]
        rows.append([name, "fail_share", f"{share:.4g}", "ratio", doc["attempted"]])
    text = render_table(f"end to end, seed {one_set['seed']}",
                        ["workload", "metric", "value", "unit", "n"], rows)
    for name, doc in one_set["layers"].items():
        values = [[k, f"{v['value']:.4g}", v["unit"]]
                  for k, v in doc["metrics"].items() if v["value"]]
        text += render_table(f"layers (non-zero), {name}", ["metric", "value", "unit"], values)
    if one_set["derived"]:
        text += render_table("derived (not gated)", ["name", "value"],
                             [[k, v if isinstance(v, str) else f"{v:.4g}"]
                              for k, v in one_set["derived"].items()])
    return text


def selfcheck(declared: dict, first: dict, second: dict) -> list[str]:
    """A/A: the same code, seed and host twice must agree within each bound."""
    problems = []
    for name in first["workloads"]:
        for m in declared["end_to_end"]:
            a = first["workloads"][name]["metrics"][m["name"]]["value"]
            b = second["workloads"][name]["metrics"][m["name"]]["value"]
            if abs(b - a) > m["bound"] * abs(a):
                problems.append(
                    f"{name} {m['name']}: {a:.4g} then {b:.4g} "
                    f"({(b - a) / a:+.1%} of the first run; bound {m['bound']:.0%})")
    return problems


def write_outputs(out_dir: str, declared: dict, seconds: float, sets: list[dict]) -> None:
    fingerprint = hostinfo.fingerprint(sets[0]["seed"])
    runs = [{"seed": s["seed"], "derived": s["derived"], "workloads": s["workloads"]}
            for s in sets]
    with open(os.path.join(out_dir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump({"fingerprint": fingerprint, "seconds": seconds, "runs": runs}, fh, indent=1)
    last = sets[-1]
    if last["layers"]:
        with open(os.path.join(out_dir, "layers.json"), "w", encoding="utf-8") as fh:
            json.dump({"fingerprint": fingerprint, "seed": last["seed"],
                       "workloads": last["layers"]}, fh, indent=1)
        events = []
        for name in last["layers"]:
            with open(os.path.join(out_dir, f"{name}.trace.json"), encoding="utf-8") as fh:
                events.extend(json.load(fh)["traceEvents"])
        with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)


def main(args, declared: dict, seconds: float) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        out_dir = args.out or scratch
        os.makedirs(out_dir, exist_ok=True)
        sets, problems = [], []
        seeds = range(args.seed, args.seed + (args.selfcheck_seeds if args.selfcheck else 1))
        for seed in seeds:
            for __ in range(2 if args.selfcheck else 1):
                sets.append(run_set(declared, seed, seconds, bool(args.trace),
                                    args.quick, out_dir))
                print(table(declared, sets[-1]))
            if args.selfcheck:
                problems += [f"seed {seed}: {p}" for p in selfcheck(declared, *sets[-2:])]
        if args.out:
            write_outputs(out_dir, declared, seconds, sets)
    failed = [
        f"seed {s['seed']}: {name} failed {doc['failed']} of {doc['attempted']} "
        f"({doc['detail'].get('first_error', '')})"
        for s in sets for docs in (s["workloads"], s["layers"])
        for name, doc in docs.items() if not doc["correct"]
    ]
    for line in failed + problems:
        print("FAIL " + line)
    if args.selfcheck and not problems:
        print("selfcheck: every end-to-end metric agreed within its bound")
    return 1 if failed or problems else 0
