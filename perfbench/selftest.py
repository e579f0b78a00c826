#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Usage (from the repository root):
    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs run.py at self-test scale
(--tiny, one second) and checks that:
  * the untraced run exits 0, reports correct, and prints every end-to-end
    metric with its declared unit;
  * the traced run does the same for every per-layer metric;
  * with --inject-wrong-answer (one expected answer corrupted) both runs
    exit non-zero and report correct = false, i.e. the oracles are live.
Exits non-zero on the first violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(spec, workload, trace, inject):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace), "--tiny"]
    if inject:
        cmd.append("--inject-wrong-answer")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)
            print(f"FAIL: {what}")

    for w in spec["workloads"]:
        name = w["name"]
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = run(spec, name, trace, inject=False)
            expect(code == 0 and result is not None and result["correct"],
                   f"{name} trace={trace}: clean run exits 0 and is correct")
            if result is None:
                continue
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{name} trace={trace}: attempted >= 1, failed == 0")
            metrics = result["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                expect(got is not None and got["unit"] == m["unit"],
                       f"{name} trace={trace}: metric {m['name']} "
                       f"[{m['unit']}] present, got {got}")
            extra = set(metrics) - {m["name"] for m in declared}
            expect(not extra, f"{name} trace={trace}: undeclared {extra}")

            code, result = run(spec, name, trace, inject=True)
            expect(code != 0 and result is not None and not result["correct"]
                   and result["failed"] > 0,
                   f"{name} trace={trace}: injected wrong answer fails the run")
        print(f"{name}: ok" if not failures else f"{name}: checked")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
