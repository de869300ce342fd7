#!/usr/bin/env python3
"""Runs one workload of the vaFS host-time benchmark and prints its metrics.

From the repository root:

    python3 perfbench/run.py --workload vod_node --seed 1 --seconds 10 --trace 0

The first run configures and builds the benchmark package (the vaFS
libraries from src/ plus perfbench/src) into .bench_build/perfbench. The
report goes to standard output; its last line is one JSON object with the
keys correct, attempted, failed and metrics, where metrics holds
BENCHMARK.json's end_to_end list (--trace 0) or its per_layer list
(--trace 1). Exits 0 only when the run finished and every correctness check
passed.
"""

import argparse
import json
import os
import subprocess
import sys

PACKAGE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PACKAGE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no vaFS sources under " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    command = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        command += ["--spans", os.path.join(SPANS_DIR, "%s-%d.tsv" % (args.workload, args.seed))]
    env = dict(os.environ, VAFS_WORKERS="1")
    env.pop("VAFS_DISK_IMAGE", None)
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the workload did not finish within %d s" % RUN_TIMEOUT_S)

    measured, result = {}, None
    for line in run.stdout.splitlines():
        if line.startswith("METRIC "):
            metric = json.loads(line[len("METRIC "):])
            measured[metric["name"]] = metric
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif not line.startswith("DROPPED "):
            print(line)
    if result is None:
        fail("the driver exited with code %d and no result" % run.returncode)

    correct = result["correct"] and run.returncode == 0
    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        metric = measured.get(entry["name"])
        if metric is None or metric["unit"] != entry["unit"]:
            print("perfbench: metric %s is missing or in another unit" % entry["name"],
                  file=sys.stderr)
            correct = False
            continue
        metrics[entry["name"]] = {"value": metric["value"], "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
