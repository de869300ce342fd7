#!/usr/bin/env python3
"""CI gate over the round-hot-path scale bench artifact.

Run from a directory containing BENCH_scale_metrics.json (dropped by
bench_scale next to its printed tables). Fails (exit 1) when:

  - a sweep size appears more than once (each population runs exactly
    once; the simulated-time digests of each run are pinned by
    bench/baselines/BENCH_scale_metrics.json through check_regression.py);
  - a sweep run executed no rounds, served no stream-rounds, produced no
    trace events or admitted no streams (the workload did not actually
    run), or no sweep run was recorded at all.

Advisory (reported, never fatal -- wall-clock cost depends on the host):

  - wall cost per served stream-round (one kRequestServiced event) at the
    largest sweep size should stay within 5x of the smallest sweep; the
    flat request table and the arena-reused round plan exist to keep that
    ratio flat.
"""

import json
import sys

FAILURES = []

# The per-served-stream-round cost ratio the scale refactor targets.
COST_RATIO_LIMIT = 5.0


def fail(message: str) -> None:
    FAILURES.append(message)
    print(f"FAIL: {message}")


def load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except FileNotFoundError:
        fail(f"{path}: missing artifact")
    except json.JSONDecodeError as err:
        fail(f"{path}: invalid JSON ({err})")
    return None


def check_alive(path: str, run) -> None:
    tag = f"viewers={run.get('viewers')}"
    if run.get("rounds", 0) <= 0:
        fail(f"{path}: {tag} executed no rounds")
    if run.get("served_stream_rounds", 0) <= 0:
        fail(f"{path}: {tag} served no stream-rounds")
    if run.get("trace_events", 0) <= 0:
        fail(f"{path}: {tag} produced no trace events")
    if run.get("admitted", 0) <= 0:
        fail(f"{path}: {tag} admitted no streams")


def check_scale(path: str) -> None:
    data = load(path)
    if data is None:
        return
    runs = data.get("scale", {}).get("runs", [])
    if not runs:
        fail(f"{path}: no runs recorded")
        return
    for run in runs:
        check_alive(path, run)

    sizes = [r.get("viewers") for r in runs]
    for size in sorted(set(sizes)):
        if sizes.count(size) != 1:
            fail(f"{path}: sweep size {size} recorded {sizes.count(size)} times")

    if not FAILURES:
        print(f"ok: {len(runs)} sweep run(s) at sizes {sorted(sizes)}, "
              f"every run executed rounds")

    # Advisory: per-served-stream-round wall cost vs the smallest sweep.
    ordered = sorted(runs, key=lambda r: r.get("viewers", 0))
    if len(ordered) >= 2:
        base, peak = ordered[0], ordered[-1]
        base_cost = base.get("stream_round_cost_wall_sec", 0.0)
        peak_cost = peak.get("stream_round_cost_wall_sec", 0.0)
        if base_cost > 0.0:
            ratio = peak_cost / base_cost
            line = (f"{peak.get('viewers')} viewers cost {peak_cost:.3f} "
                    f"us/served stream-round vs {base.get('viewers')} viewers "
                    f"{base_cost:.3f} ({ratio:.2f}x, limit {COST_RATIO_LIMIT}x)")
            if ratio > COST_RATIO_LIMIT:
                print(f"advisory: {line}; hot path is not scaling flat")
            else:
                print(f"ok: {line}")


def main() -> int:
    check_scale("BENCH_scale_metrics.json")
    if FAILURES:
        print(f"{len(FAILURES)} scale gate(s) failed")
        return 1
    print("all scale gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
