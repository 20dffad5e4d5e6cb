"""End-to-end benchmark: seven named workloads, one command.

One workload, one process (what ``BENCHMARK.json`` declares)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics, as one JSON object on the last line of standard output.  Without
``--workload`` every workload runs in a fresh subprocess of its own and a
table is printed; see README.md for ``--selfcheck``, ``--quick``, ``--out``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# Sibling modules, the program under test, and benchmarks/_util.py.
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.dirname(HERE)]

SETUP_REPEATS = 3
QUICK_SCALE = 0.1


def declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def import_seconds(own: float, repeats: int) -> float:
    """Median time to import the program: this process's own import and
    ``repeats - 1`` more, each in an interpreter of its own.

    A process imports once, and for the served workloads that one sample is
    four fifths of ``setup_s``."""
    samples = [own]
    for __ in range(repeats - 1):
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--import-only"],
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float, out_dir: str | None) -> dict:
    """Run one workload in this process; returns the result document."""
    import workloads  # imports the program: part of set-up time

    import_s = time.perf_counter() - _PROCESS_START
    workload = workloads.WORKLOADS[name](seed, seconds, scale)
    if trace:
        import layers

        workload.setup()
        try:
            values, detail, spans = layers.traced_pass(workload, seconds)
        finally:
            workload.teardown()
        declared = declaration()["per_layer"]
    else:
        setups = []
        repeats = SETUP_REPEATS if scale == 1.0 else 1
        for rep in range(repeats):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
            if rep < repeats - 1:
                workload.teardown()
        try:
            detail = workload.measure(seconds)
        finally:
            workload.teardown()
        detail["loop"] = workload.loop
        values = dict(detail)
        values["peak_rss_mb"] = peak_rss_mb()  # before the import-only children
        import_s = import_seconds(import_s, repeats)
        values["setup_s"] = import_s + statistics.median(setups)
        detail.update(setup_s=values["setup_s"], import_s=import_s,
                      setup_samples=len(setups), peak_rss_mb=values["peak_rss_mb"])
        spans = None
        declared = declaration()["end_to_end"]
    result = {
        "correct": detail["failed"] == 0,
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }
    if out_dir:
        write_outputs(out_dir, name, seed, trace, result, detail, spans)
    return {"result": result, "detail": detail}


def write_outputs(out_dir, name, seed, trace, result, detail, spans) -> None:
    import hostinfo
    from spans import chrome_trace

    os.makedirs(out_dir, exist_ok=True)
    kind = "layers" if trace else "result"
    doc = {"workload": name, "seed": seed, "fingerprint": hostinfo.fingerprint(seed),
           **result, "detail": detail}
    with open(os.path.join(out_dir, f"{name}.{kind}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, default=str)
    if spans is not None:
        with open(os.path.join(out_dir, f"{name}.trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": chrome_trace(spans, pid=name)}, fh)


def print_detail(name: str, detail: dict) -> None:
    print(f"# {name}")
    for key, value in detail.items():
        print(f"#   {key} = {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="1/10 lengths and sizes: a smoke run, not a measurement")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the set twice and compare within the declared bounds")
    parser.add_argument("--selfcheck-seeds", type=int, default=1)
    parser.add_argument("--out", help="directory for results.json, layers.json, trace.json")
    parser.add_argument("--import-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.import_only:  # see import_seconds
        import workloads  # noqa: F401

        print(time.perf_counter() - _PROCESS_START)
        return 0
    declared = declaration()
    seconds = args.seconds if args.seconds is not None else float(declared["run_seconds"])
    scale = QUICK_SCALE if args.quick else 1.0
    if args.quick and args.seconds is None:
        seconds *= QUICK_SCALE
    if args.workload is None:
        import suite

        return suite.main(args, declared, seconds)
    names = {w["name"] for w in declared["workloads"]}
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; declared: {sorted(names)}")
    import procs

    # The cluster workload's workers start resource trackers nobody waits for:
    # adopt whatever is orphaned, and end and reap every child on any way out.
    procs.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        doc = run_workload(args.workload, args.seed, seconds, bool(args.trace), scale, args.out)
    finally:
        procs.reap_all()
    print_detail(args.workload, doc["detail"])
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
