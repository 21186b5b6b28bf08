#!/usr/bin/env python3
"""Builds and runs the perfbench driver from the checkout it sits in.

    python3 perfbench/run.py --workload <name> [--seed <n>] --seconds <s> --trace <0|1>

Configures a Release build of perfbench/ (which compiles the library from
the checkout's sources) under .bench_build/perfbench, builds it, runs the
driver and relays its output. The last stdout line is the driver's JSON
result, printed only after it was checked against BENCHMARK.json: every
declared metric of the run's mode, with its declared unit, and nothing else.
Exits non-zero when the sources are missing, the build fails, the driver
fails a check, or the result does not match the declaration.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
DEFAULT_SEED = "1"  # the reference seed of the baseline in README.md


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def flag_value(argv, flag):
    for i, arg in enumerate(argv[:-1]):
        if arg == flag:
            return argv[i + 1]
    return None


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "engine.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no IncShrink sources next to perfbench/ (missing %s)" % needed)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            fail("build step failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    argv = sys.argv[1:]
    if flag_value(argv, "--seed") is None:
        argv += ["--seed", DEFAULT_SEED]
    trace = flag_value(argv, "--trace") == "1"
    build()
    cmd = [os.path.join(BUILD_DIR, "perfbench")] + argv
    if trace:
        name = "spans-%s-%s.jsonl" % (flag_value(argv, "--workload"),
                                      flag_value(argv, "--seed"))
        cmd += ["--trace-out", os.path.join(BUILD_DIR, name)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S, 1)
    lines = proc.stdout.decode(errors="replace").rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode, proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver's last line is not JSON", 1)
    if set(result) != RESULT_KEYS:
        fail("result keys %s" % sorted(result), 1)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != declared_metrics(trace):
        fail("metrics differ from BENCHMARK.json", 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
