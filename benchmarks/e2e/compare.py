"""Compare two results files: ``python3 benchmarks/e2e/compare.py A B``.

``A`` is the base (the parent commit), ``B`` the change; each is a
``results.json`` written by ``run.py --out`` (several runs when made with
``--selfcheck``).  Refuses to diff results from different hosts or seeds.
Prints one row per (workload, metric): both medians, the ratio with its
base, the bound, and ``ok`` / ``worse`` / ``unresolved`` (the run-to-run
spread of either side is wider than the bound, so the pair proves nothing).
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

import hostinfo
import quant
from _util import render_table


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint_mismatch(a: dict, b: dict) -> list[str]:
    seeds = ([r["seed"] for r in a["runs"]], [r["seed"] for r in b["runs"]])
    problems = [
        f"{key}: {a['fingerprint'].get(key)!r} vs {b['fingerprint'].get(key)!r}"
        for key in hostinfo.COMPARABLE
        if a["fingerprint"].get(key) != b["fingerprint"].get(key)
    ]
    if sorted(set(seeds[0])) != sorted(set(seeds[1])):
        problems.append(f"seeds: {seeds[0]} vs {seeds[1]}")
    if a.get("seconds") != b.get("seconds"):
        problems.append(f"seconds: {a.get('seconds')} vs {b.get('seconds')}")
    return problems


def values(doc: dict, workload: str, metric: str) -> list[float]:
    return [r["workloads"][workload]["metrics"][metric]["value"]
            for r in doc["runs"] if workload in r["workloads"]]


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    if max(quant.spread(a), quant.spread(b)) > bound:
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    worse_by = (new - base) / base if better == "lower" else (base - new) / base
    return "worse" if worse_by > bound else "ok"


def compare(declared: dict, a: dict, b: dict) -> tuple[str, int]:
    rows, worse = [], 0
    for w in declared["workloads"]:
        for m in declared["end_to_end"]:
            va, vb = values(a, w["name"], m["name"]), values(b, w["name"], m["name"])
            if not va or not vb:
                continue
            base, new = statistics.median(va), statistics.median(vb)
            result = verdict(va, vb, m["better"], m["bound"])
            worse += result == "worse"
            rows.append([w["name"], m["name"], m["unit"], f"{base:.4g}", f"{new:.4g}",
                         f"{new / base:.3f} x A", f"{m['bound']:.0%}",
                         f"{quant.spread(va):.1%} / {quant.spread(vb):.1%}", result])
    text = render_table(
        "B against A (medians; ratio base is A)",
        ["workload", "metric", "unit", "A", "B", "B / A", "bound", "spread A / B",
         "verdict"], rows)
    return text, worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    problems = fingerprint_mismatch(a, b)
    if problems:
        print("refusing to compare: fingerprints differ\n  " + "\n  ".join(problems))
        return 2
    root = os.path.dirname(os.path.dirname(HERE))
    declared = load(os.path.join(root, "BENCHMARK.json"))
    text, worse = compare(declared, a, b)
    print(text)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
