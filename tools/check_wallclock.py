#!/usr/bin/env python3
"""CI gate over the wall-clock execution engine bench artifact.

Run from a directory containing BENCH_wallclock_metrics.json (dropped by
bench_wallclock next to its printed tables). The bench runs one seeded
multi-node cluster at several worker counts; the coordinator advances the
nodes of each epoch as parallel pool tasks. Fails (exit 1) when:

  - determinism breaks: any run's cluster Signature() digest,
    ClusterSloJson() digest, per-node trace digests, shared template-sink
    stream digest or event count, round count or census counts differ
    from the single-worker reference. These gates are HARD on every host
    -- wall-clock parallelism must never change simulated-time results;
  - the reference run executed no rounds, admitted no viewer, left the
    shared sink empty or failed its audits (the workload did not actually
    run, or ran wrong);
  - on a multi-core host, the best multi-worker rounds/sec falls below
    the single-worker rounds/sec (tolerance 0.9x for scheduler noise).
    On a single-hardware-thread host no speedup is physically possible,
    so the throughput gate is reported but advisory only.
"""

import json
import sys

FAILURES = []

DETERMINISM_KEYS = (
    "signature_digest", "slo_digest", "node_trace_digests", "shared_digest",
    "shared_events", "epochs", "rounds", "viewers", "admitted", "failed_over",
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


def check_wallclock(path: str) -> None:
    data = load(path)
    if data is None:
        return
    wallclock = data.get("wallclock", {})
    runs = wallclock.get("runs", [])
    if not runs:
        fail(f"{path}: no runs recorded")
        return

    reference = runs[0]
    if reference.get("workers") != 1:
        fail(f"{path}: first run must be the single-worker reference")
    if reference.get("rounds", 0) <= 0:
        fail(f"{path}: reference run executed no rounds")
    if reference.get("admitted", 0) <= 0:
        fail(f"{path}: reference run admitted no viewers")
    if reference.get("shared_events", 0) <= 0:
        fail(f"{path}: reference run sent no events to the shared sink")
    if len(reference.get("node_trace_digests", [])) != wallclock.get("nodes"):
        fail(f"{path}: reference run has no trace digest for some node")
    if reference.get("audits_clean") is not True:
        fail(f"{path}: reference run failed its continuity audits")

    # Hard determinism gates: byte-identical simulated-time results for
    # every worker count.
    for run in runs[1:]:
        workers = run.get("workers")
        for key in DETERMINISM_KEYS + ("audits_clean",):
            if run.get(key) != reference.get(key):
                fail(f"{path}: workers={workers} {key} = {run.get(key)!r} "
                     f"!= single-worker {reference.get(key)!r} (determinism broken)")
    if not FAILURES:
        print(f"ok: {len(runs)} worker counts, simulated-time digests identical "
              f"(signature {reference.get('signature_digest')}, "
              f"shared stream {reference.get('shared_digest')}, "
              f"{len(reference.get('node_trace_digests', []))} node traces)")

    # Throughput gate: hard on multi-core hosts, advisory on single-core.
    single = reference.get("rounds_per_sec", 0.0)
    multi = [run for run in runs if run.get("workers", 1) > 1]
    best = max((run.get("rounds_per_sec", 0.0) for run in multi), default=0.0)
    cores = wallclock.get("hardware_concurrency", 0)
    if single <= 0.0 or not multi:
        fail(f"{path}: missing throughput measurements")
        return
    ratio = best / single
    line = (f"best multi-worker {best:.1f} rounds/sec vs single-worker "
            f"{single:.1f} ({ratio:.2f}x) on {cores} hardware thread(s)")
    if cores <= 1:
        print(f"advisory: {line}; single-core host, speedup gate skipped")
    elif best < 0.9 * single:
        fail(f"{path}: {line}; parallel node epochs slower than inline")
    else:
        print(f"ok: {line}")


def main() -> int:
    check_wallclock("BENCH_wallclock_metrics.json")
    if FAILURES:
        print(f"{len(FAILURES)} wall-clock gate(s) failed")
        return 1
    print("all wall-clock gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
