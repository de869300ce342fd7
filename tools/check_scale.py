#!/usr/bin/env python3
"""CI gate over the round-hot-path scale bench artifact.

Run from a directory containing BENCH_scale_metrics.json (dropped by
bench_scale next to its printed tables). Fails (exit 1) when:

  - determinism breaks across planner modes: the 5k-viewer sweep run
    with incremental round planning disagrees with the from-scratch run
    on any simulated-time result (trace / SLO / audit digest, round
    count, simulated completion, admitted streams). Incremental planning
    is a pure hot-path optimisation -- it must replan byte-identically;
  - a sweep or waves run recorded no rounds, no trace events or no
    admitted streams (the workload did not actually run), or no waves
    run was recorded at all.

Advisory (reported, never fatal -- wall-clock cost depends on the host):

  - per-(stream x round) wall cost at the largest sweep size should stay
    within 5x of the 1k-viewer run; the flat request table and the
    incremental planner exist to keep that ratio flat;
  - the waves runs should recycle PagePool pages (reuse ratio > 0).
"""

import json
import sys

FAILURES = []

# The per-(stream x round) cost ratio the scale refactor targets.
COST_RATIO_LIMIT = 5.0

SWEEP_DETERMINISM_KEYS = (
    "trace_digest", "slo_digest", "audit_digest",
    "rounds", "trace_events", "completion_usec", "admitted",
    "sessions_batched", "sessions_merged",
)


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
    tag = f"{run.get('part')} viewers={run.get('viewers')} mode={run.get('mode')}"
    if run.get("rounds", 0) <= 0:
        fail(f"{path}: {tag} executed no rounds")
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

    sweeps = [r for r in runs if r.get("part") == "sweep"]
    waves = [r for r in runs if r.get("part") == "waves"]

    # Hard gate 1: incremental vs from-scratch planning, same population.
    scratch = [r for r in sweeps if r.get("mode") == "from_scratch"]
    if not scratch:
        fail(f"{path}: no from-scratch sweep recorded")
    for ref in scratch:
        twin = next((r for r in sweeps if r.get("mode") == "incremental"
                     and r.get("viewers") == ref.get("viewers")), None)
        if twin is None:
            fail(f"{path}: from-scratch sweep at {ref.get('viewers')} viewers "
                 f"has no incremental twin")
            continue
        for key in SWEEP_DETERMINISM_KEYS:
            if twin.get(key) != ref.get(key):
                fail(f"{path}: viewers={ref.get('viewers')} {key} = "
                     f"{twin.get(key)!r} (incremental) != {ref.get(key)!r} "
                     f"(from scratch) -- incremental planning changed results")

    if not waves:
        fail(f"{path}: no waves runs recorded")

    if not FAILURES:
        digests = {r.get("trace_digest") for r in sweeps}
        print(f"ok: {len(sweeps)} sweep run(s) and {len(waves)} waves run(s), "
              f"digests stable across planner modes "
              f"({len(digests)} distinct populations)")

    # Advisory: per-(stream x round) wall cost vs the smallest sweep.
    incremental = sorted((r for r in sweeps if r.get("mode") == "incremental"),
                         key=lambda r: r.get("viewers", 0))
    if len(incremental) >= 2:
        base, peak = incremental[0], incremental[-1]
        base_cost = base.get("stream_round_cost_wall_sec", 0.0)
        peak_cost = peak.get("stream_round_cost_wall_sec", 0.0)
        if base_cost > 0.0:
            ratio = peak_cost / base_cost
            line = (f"{peak.get('viewers')} viewers cost {peak_cost:.3f} "
                    f"us/(stream x round) vs {base.get('viewers')} viewers "
                    f"{base_cost:.3f} ({ratio:.2f}x, limit {COST_RATIO_LIMIT}x)")
            if ratio > COST_RATIO_LIMIT:
                print(f"advisory: {line}; hot path is not scaling flat")
            else:
                print(f"ok: {line}")

    # Advisory: the waves runs should be recycling pool pages.
    for run in waves:
        created = run.get("pool_created", 0)
        recycled = run.get("pool_recycled", 0)
        if created + recycled > 0:
            reuse = recycled / (created + recycled)
            print(f"ok: waves recycled "
                  f"{recycled} of {created + recycled} page acquisitions "
                  f"({100.0 * reuse:.1f}% reuse)")
        else:
            print(f"advisory: waves acquired no "
                  f"pool pages (payload verification off?)")


def main() -> int:
    check_scale("BENCH_scale_metrics.json")
    if FAILURES:
        print(f"{len(FAILURES)} scale gate(s) failed")
        return 1
    print("all scale gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
