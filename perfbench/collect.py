#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its steadiness.

Run from the repository root:

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

For each workload and seed it makes one untraced run; then one traced run per
workload on the first seed.  For every end-to-end metric it reports the median
of the per-run values and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().split("\n")
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, s, bench["run_seconds"], 0) for s in seeds]
        entry = {"correct": all(r["result"]["correct"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "machine": runs[0]["record"]["machine"], "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = {**spread(values), "bound": bound}
            s = entry["end_to_end"][name]
            print(f"{workload:20} {name:12} median {s['median']:10.4f}  spread {s['spread']:.3f}"
                  f"  (bound {bound}, a third {bound / 3:.3f})", flush=True)
        entry["kinds"] = {k: statistics.median(r["record"]["kinds"][k]["best"] for r in runs)
                          for k in runs[0]["record"]["kinds"]}
        traced = run(workload, seeds[0], bench["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        entry["traced_correct"] = traced["result"]["correct"]
        summary["workloads"][workload] = entry
        print(f"{workload:20} correct {entry['correct']}  attempted {entry['attempted']}"
              f"  failed {entry['failed']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
