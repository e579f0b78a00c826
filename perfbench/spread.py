#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Usage (from the repository root):
    python3 perfbench/spread.py [--workloads w1,w2] [--runs 10] [--first-seed 1]

Runs each workload once per seed (seeds first-seed .. first-seed+runs-1)
with the run length from BENCHMARK.json, then prints, per end-to-end
metric, the median, the inter-quartile range as a share of the median
(statistics.quantiles(values, n=4)), and the metric's bound from
BENCHMARK.json. Exits non-zero if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.monotonic()
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            walls.append(time.monotonic() - start)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med if med else float("inf")
            flag = "" if iqr < bounds[name] / 3 else "  <-- over bound/3"
            print(f"  {name:30s} median {med:14.4f}  iqr/median {iqr:7.4f}"
                  f"  bound {bounds[name]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
