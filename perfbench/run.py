#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <ingest_wal|point_mix|imc_analytic>
        --seed <n> --seconds <s> --trace <0|1> [--tiny] [--inject-wrong-answer]

The first call configures and builds the engine from ../src plus the benchmark
in Release mode under .bench_build/perfbench; later calls rebuild only what
changed. The benchmark's scratch files (WAL segments) live under
.bench_build/work and are removed when the run ends. The last line of
standard output is the benchmark's JSON result; the exit code is non-zero when
the build fails, the run times out, or any oracle misses. See README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fsdm_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures on first use, then builds; compiler output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "fsdm_perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest_wal", "point_mix", "imc_analytic"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale (a few hundred documents)")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="self-test: corrupt expected answers")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    workdir = os.path.join(ROOT, ".bench_build", "work",
                           f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ)
    env["FSDM_INCIDENT_DIR"] = os.path.join(workdir, "incidents")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_wrong_answer:
        cmd.append("--inject-wrong-answer")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
