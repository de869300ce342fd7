#!/usr/bin/env python3
"""Bench-regression gate: diff BENCH_*_metrics.json against bench/baselines/.

Run from a bench output directory (CI runs it from build/bench). For every
baseline committed under bench/baselines/, if the matching artifact exists
in the current directory it is compared leaf by leaf:

  - registry dumps (top-level "counters"/"gauges"/"histograms", written by
    WriteMetricsJson) are compared structurally: every baseline metric key
    must still exist with a finite, non-negative value. Their magnitudes
    scale with google-benchmark iteration counts, so values are not banded.
  - bench summary files (the handwritten, deterministic-simulation JSONs)
    are compared with tolerance bands: exact for ints/bools/strings,
    relative tolerance for floats, with per-key overrides below for
    wall-clock measurements that vary across machines.

Artifacts the current job did not produce are skipped, so one invocation
works in every bench job. Baseline files with no band violations pass;
any violation exits 1.

Refreshing baselines after an intentional perf change:

    cd build/bench && <run the benches> && \
        python3 ../../tools/check_regression.py --update
"""

import argparse
import fnmatch
import json
import math
import os
import shutil
import sys

BASELINE_DIR = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "baselines"))

# Relative tolerance for float leaves in deterministic summary files. The
# simulation is bit-deterministic, so this only absorbs formatting noise
# and deliberate small drift; real regressions move far more.
DEFAULT_REL_TOL = 0.05

# Per-key band overrides, matched with fnmatch against "file:dotted.path".
# Modes: "skip" (never compared), ("rel", X) relative band, ("min_ratio", X)
# ratchet — current must be >= baseline * X.
OVERRIDES = [
    # Host-dependent wall-clock measurements: never gate on them.
    ("*hardware_concurrency", "skip"),
    ("*wall_sec", "skip"),
    ("*rounds_per_sec", "skip"),
    ("*speedup*", "skip"),
    # Simulated round times: a tighter band than default, these are the
    # headline perf numbers the planner work protects.
    ("BENCH_roundplan_metrics.json:roundplan.*_mean_round_usec", ("rel", 0.02)),
    # The per-request round's EXPERIMENTS.md tables (FIFO vs SCAN glitches
    # and disk busy time; stepped vs naive transition glitches): exact.
    ("BENCH_scan_table_metrics.json:*", ("rel", 0.0)),
    ("BENCH_admission_transition_table_metrics.json:*", ("rel", 0.0)),
    # Ratchets: sharing/scaling wins must not silently erode.
    ("BENCH_roundplan_metrics.json:shared_title.achieved_n", ("min_ratio", 1.0)),
    ("BENCH_cluster_metrics.json:cluster.scaling_4x_vs_1x", ("min_ratio", 0.9)),
]

FAILURES = []


def fail(message: str) -> None:
    FAILURES.append(message)
    print(f"FAIL: {message}")


def load(path: str):
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def leaves(value, prefix=""):
    """Flattens nested dicts/lists into {dotted.path: leaf}."""
    out = {}
    if isinstance(value, dict):
        for key, child in value.items():
            out.update(leaves(child, f"{prefix}.{key}" if prefix else key))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            out.update(leaves(child, f"{prefix}[{index}]"))
    else:
        out[prefix] = value
    return out


def band_for(name: str, path: str):
    full = f"{name}:{path}"
    for pattern, mode in OVERRIDES:
        if fnmatch.fnmatch(full, pattern) or fnmatch.fnmatch(path, pattern):
            return mode
    return None


def is_registry_dump(data) -> bool:
    return isinstance(data, dict) and "counters" in data and "histograms" in data


def compare_structure(name: str, baseline, current) -> None:
    base_leaves = leaves(baseline)
    cur_leaves = leaves(current)
    missing = [path for path in base_leaves if path not in cur_leaves]
    # Histogram bucket lists shrink/grow with sample counts; only gate on
    # instrument presence, not bucket-level paths.
    missing = [path for path in missing if "buckets" not in path]
    for path in missing:
        fail(f"{name}: metric {path} vanished (present in baseline)")
    bad = [path for path, value in cur_leaves.items()
           if isinstance(value, (int, float)) and not isinstance(value, bool)
           and (not math.isfinite(value) or value < 0)]
    for path in bad:
        fail(f"{name}: metric {path} is {cur_leaves[path]!r} (non-finite or negative)")
    if not missing and not bad:
        print(f"ok: {name}: structure intact ({len(base_leaves)} baseline leaves)")


def compare_banded(name: str, baseline, current) -> None:
    base_leaves = leaves(baseline)
    cur_leaves = leaves(current)
    checked = 0
    for path, base_value in sorted(base_leaves.items()):
        mode = band_for(name, path)
        if mode == "skip":
            continue
        if path not in cur_leaves:
            fail(f"{name}: {path} vanished (baseline {base_value!r})")
            continue
        cur_value = cur_leaves[path]
        checked += 1
        if isinstance(mode, tuple) and mode[0] == "min_ratio":
            floor = base_value * mode[1]
            if cur_value < floor:
                fail(f"{name}: {path} = {cur_value!r} below ratchet floor {floor!r} "
                     f"(baseline {base_value!r})")
            continue
        if isinstance(base_value, bool) or isinstance(base_value, str) or base_value is None:
            if cur_value != base_value:
                fail(f"{name}: {path} = {cur_value!r}, baseline {base_value!r}")
            continue
        rel = mode[1] if isinstance(mode, tuple) and mode[0] == "rel" else DEFAULT_REL_TOL
        if isinstance(base_value, int) and isinstance(cur_value, int):
            # Deterministic integer counters: allow the band scaled to the
            # magnitude, but never less than an exact match for zeros.
            limit = max(abs(base_value) * rel, 0)
            if abs(cur_value - base_value) > limit:
                fail(f"{name}: {path} = {cur_value}, baseline {base_value} "
                     f"(band +/-{limit:.1f})")
            continue
        limit = max(abs(float(base_value)) * rel, 1e-9)
        if abs(float(cur_value) - float(base_value)) > limit:
            fail(f"{name}: {path} = {cur_value}, baseline {base_value} (band +/-{limit:.3f})")
    new_keys = sorted(set(cur_leaves) - set(base_leaves))
    if new_keys:
        print(f"note: {name}: {len(new_keys)} new metric(s) not in baseline "
              f"(run --update to adopt): {', '.join(new_keys[:5])}"
              + ("..." if len(new_keys) > 5 else ""))
    print(f"ok: {name}: {checked} leaves within bands")


def update_baselines(baseline_dir: str) -> int:
    os.makedirs(baseline_dir, exist_ok=True)
    copied = 0
    for name in sorted(os.listdir(".")):
        if fnmatch.fnmatch(name, "BENCH_*_metrics.json"):
            shutil.copyfile(name, os.path.join(baseline_dir, name))
            print(f"baseline updated: {name}")
            copied += 1
    if copied == 0:
        print("no BENCH_*_metrics.json in the current directory")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baselines", default=BASELINE_DIR,
                        help=f"baseline directory (default {BASELINE_DIR})")
    parser.add_argument("--update", action="store_true",
                        help="copy current artifacts into the baseline directory")
    args = parser.parse_args()

    if args.update:
        return update_baselines(args.baselines)

    if not os.path.isdir(args.baselines):
        print(f"FAIL: baseline directory {args.baselines} missing")
        return 1
    compared = 0
    for name in sorted(os.listdir(args.baselines)):
        if not fnmatch.fnmatch(name, "BENCH_*_metrics.json"):
            continue
        if not os.path.exists(name):
            print(f"note: {name} not produced by this job, skipping")
            continue
        try:
            baseline = load(os.path.join(args.baselines, name))
            current = load(name)
        except json.JSONDecodeError as err:
            fail(f"{name}: invalid JSON ({err})")
            continue
        compared += 1
        if is_registry_dump(baseline):
            compare_structure(name, baseline, current)
        else:
            compare_banded(name, baseline, current)
    if compared == 0:
        print("note: no artifacts overlapped the baseline set; nothing gated")
    if FAILURES:
        print(f"{len(FAILURES)} regression gate(s) failed")
        return 1
    print(f"all regression gates passed ({compared} artifact(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
