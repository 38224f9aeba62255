#!/usr/bin/env python3
"""Builds the xaon benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload cbr-tcp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build (CMake, RelWithDebInfo) goes to .bench_build/perfbench and
compiles the repository's src/ and include/ directly; span dumps of
traced runs go to .bench_out/. The last line of standard output is the
run's JSON result. Build output and diagnostics go to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.isdir(
        os.path.join(ROOT, "include", "xaon")
    ):
        sys.exit("perfbench: the library sources (src/, include/) are missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", default="1")
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    if a.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if not a.workload:
        p.error("--workload is required")
    binary = build("perfbench")
    os.makedirs(OUT, exist_ok=True)
    cmd = [binary, "--workload", a.workload, "--seed", a.seed,
           "--seconds", a.seconds, "--trace", a.trace, "--out", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: run failed with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    want = declared_metrics(a.trace == "1")
    if list(result["metrics"]) != want:
        sys.exit("perfbench: printed metrics %s differ from BENCHMARK.json %s"
                 % (list(result["metrics"]), want))
    print(lines[-1])


if __name__ == "__main__":
    main()
