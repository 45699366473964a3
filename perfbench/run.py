#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 35 --trace 0

The first run in a checkout configures and builds perfbench/ (which pulls
in the library from the parent directory) under .bench_build/; later runs
only rebuild what changed. The benchmark's statistics self-test runs
before every measurement. The binary's output is forwarded; its last line
is the result object, checked here against the metric lists in
BENCHMARK.json. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("valmod_ecg", "serve_mixed", "stream_ingest")
# A run must end within 180 s; leave room for process start and the check.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no library sources in {ROOT}; cannot build the benchmark")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "valmod_perfbench", "perfbench_selftest", "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, or None."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        log("the last output line is not a JSON object")
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"unexpected result keys {sorted(result)}")
        return False
    declared = declared_metrics(trace)
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if declared is not None and printed != declared:
        log(f"printed metrics differ from BENCHMARK.json: "
            f"{sorted(set(printed.items()) ^ set(declared.items()))}")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 1
    selftest = subprocess.run([str(BUILD / "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        log("statistics self-test failed; not measuring")
        return 1

    command = [str(BUILD / "valmod_perfbench"), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}"]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    if run.returncode:
        log(f"benchmark exited with code {run.returncode}")
        return 1
    lines = run.stdout.strip().splitlines()
    if not lines or not check_result(lines[-1], args.trace):
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
