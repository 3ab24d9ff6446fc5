#!/usr/bin/env python3
"""Validates bench/telemetry JSON emitted by the cqcount binaries.

Usage:
  check_estimates.py stats <stats.json> [other.json]
                                                    `cli stats` schema check;
                                                    with a second dump, a
                                                    determinism comparison
                                                    of every work counter
  check_estimates.py trace <trace.json>             Chrome-trace schema check
  check_estimates.py scheduler <BENCH_scheduler.json>
                                                    adaptive-scheduler bench
                                                    schema + reduction check
  check_estimates.py storage <BENCH_storage.json>   segment-storage bench
                                                    schema check + perf floors

Fixed-seed answers are not checked here: tests/estimate_pins_test.cc pins
them under ctest, at every lane count, storage backend and SIMD level.

The telemetry modes validate the observability surface added with the
obs/ subsystem: the metric registry dump and the Chrome trace_event
export. The `count --json` and `explain --json` documents are checked by
tests/result_json_test.cc.
"""
import json
import sys

# Metric families every `stats` dump must contain (eagerly registered at
# load, so they appear even on code paths the process never executed).
REQUIRED_METRICS = (
    "engine.counts",
    "plan_cache.hits",
    "plan_cache.misses",
    "plan_cache.evictions",
    "executor.tasks_submitted",
    "executor.queue_depth",
    "dlm.estimates",
    "dlm.oracle_calls",
    "dlm.abandoned_waves",
    "dlm.early_stops",
    "dp.prepared_decides",
    "cc.nondet.hom_queries",
    "acjr.membership_tests",
    "sampler.samples",
    "scheduler.profile_predictions",
    "scheduler.plan_predictions",
    "scheduler.budget_splits",
    "scheduler.early_stops",
    "scheduler.runs_saved",
    "storage.segment_opens",
)

# Typed stop reasons an estimator execution may report (util/
# estimate_outcome.h StopReasonName). "none" covers exact strategies with
# no run structure.
STOP_REASONS = (
    "none",
    "full_schedule",
    "confidence",
    "hard_bounds",
    "budget_exhausted",
    "cancelled",
    "deadline_expired",
)

# Span names a traced non-trivial count must produce. dlm.run/dlm.round
# only appear when the instance reaches the sampling phase, so the CI
# smoke database is deliberately dense enough to get there.
REQUIRED_SPANS = (
    "engine.count",
    "engine.parse",
    "engine.compile",
    "compile.normalize",
    "pass.dedup_and_guards",
    "engine.plan",
    "engine.execute",
    "component.execute",
    "fptras.dlm",
    "dlm.run",
    "dlm.round",
)

VALID_KINDS = ("counter", "gauge", "histogram")


def load_stats(path):
    with open(path) as f:
        data = json.load(f)
    metrics = data.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        raise SystemExit(f"{path}: no 'metrics' array")
    return metrics


def check_stats(path, other_path=None):
    metrics = load_stats(path)
    failures = []
    names = []
    for m in metrics:
        name = m.get("name")
        if not name:
            failures.append(f"metric without a name: {m}")
            continue
        names.append(name)
        kind = m.get("kind")
        if kind not in VALID_KINDS:
            failures.append(f"{name}: bad kind {kind!r}")
        if not m.get("description"):
            failures.append(f"{name}: missing description")
        if kind == "histogram":
            if "count" not in m or "sum" not in m:
                failures.append(f"{name}: histogram without count/sum")
            for bucket in m.get("buckets", []):
                if "le" not in bucket or "count" not in bucket:
                    failures.append(f"{name}: malformed bucket {bucket}")
        elif "value" not in m:
            failures.append(f"{name}: {kind} without a value")
    if names != sorted(names):
        failures.append("metrics are not sorted by name")
    for required in REQUIRED_METRICS:
        if required not in names:
            failures.append(f"required metric missing: {required}")
    if other_path is not None:
        # Determinism comparison: two dumps from identically-configured
        # fixed-seed runs must agree on every WORK counter, including
        # cc.nondet.hom_queries (lane-invariant despite its historical
        # name). Timing-valued metrics (histograms, gauges) are excluded
        # wholesale: they measure clocks and queue depths, not work.
        other = {m.get("name"): m for m in load_stats(other_path)}
        for m in metrics:
            name = m.get("name")
            if not name or m.get("kind") != "counter":
                continue
            peer = other.get(name)
            if peer is None:
                failures.append(f"{name}: missing from {other_path}")
            elif m.get("value") != peer.get("value"):
                failures.append(
                    f"{name}: counter value {m.get('value')} != "
                    f"{peer.get('value')} across fixed-seed runs")
    if failures:
        print("stats schema check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    suffix = " + determinism vs peer dump" if other_path else ""
    print(f"stats schema check OK ({len(names)} metrics{suffix})")
    return 0


def check_trace(path):
    with open(path) as f:
        data = json.load(f)
    failures = []
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise SystemExit(f"{path}: no 'traceEvents' array")
    seen = set()
    for e in events:
        name = e.get("name")
        if not name:
            failures.append(f"event without a name: {e}")
            continue
        seen.add(name)
        if e.get("ph") != "X":
            failures.append(f"{name}: phase {e.get('ph')!r} != 'X'")
        for key in ("ts", "dur", "pid", "tid"):
            if not isinstance(e.get(key), (int, float)):
                failures.append(f"{name}: missing/non-numeric {key!r}")
        args = e.get("args", {})
        if "id" not in args or "parent" not in args:
            failures.append(f"{name}: args without span id/parent")
    for required in REQUIRED_SPANS:
        if required not in seen:
            failures.append(
                f"required span missing: {required} (traced count too "
                f"trivial? the smoke DB must be dense enough to reach the "
                f"DLM sampling phase)")
    if data.get("droppedEvents", 0) != 0:
        failures.append(
            f"trace dropped {data['droppedEvents']} events (buffer too "
            f"small for the smoke workload)")
    if failures:
        print("trace schema check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"trace schema check OK ({len(events)} events, "
          f"{len(seen)} distinct spans)")
    return 0


def check_scheduler(path):
    """Validates BENCH_scheduler.json: the adaptive-scheduler A/B bench.

    Each workload entry carries an adaptive-off arm (the PR 7 baseline
    behaviour: full run schedule, even eps split) and an adaptive-on arm
    (cost-model budgets + CLT early stop). The schema check asserts the
    typed stop reasons and that adaptivity never *increases* oracle work
    on these workloads; the adaptive-off answers are pinned by
    tests/estimate_pins_test.cc.
    """
    with open(path) as f:
        data = json.load(f)
    failures = []
    workloads = data.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        raise SystemExit(f"{path}: no 'workloads' array")
    arm_keys = ("estimate", "oracle_calls", "estimator_calls", "millis",
                "stop_reason", "completed_runs", "total_runs")
    for w in workloads:
        name = w.get("name", "<unnamed>")
        for key in ("name", "universe", "seed", "epsilon", "delta",
                    "adaptive_off", "adaptive_on", "oracle_call_reduction"):
            if key not in w:
                failures.append(f"{name}: missing {key!r}")
        for arm_name in ("adaptive_off", "adaptive_on"):
            arm = w.get(arm_name, {})
            for key in arm_keys:
                if key not in arm:
                    failures.append(f"{name}.{arm_name}: missing {key!r}")
            reason = arm.get("stop_reason")
            if reason is not None and reason not in STOP_REASONS:
                failures.append(
                    f"{name}.{arm_name}: stop_reason {reason!r} not in "
                    f"{STOP_REASONS}")
        off_reason = w.get("adaptive_off", {}).get("stop_reason")
        if off_reason in ("confidence", "hard_bounds"):
            failures.append(
                f"{name}: adaptive_off arm reports early-stop reason "
                f"{off_reason!r} — early termination must be opt-in")
        reduction = w.get("oracle_call_reduction")
        if isinstance(reduction, (int, float)):
            if reduction < 1.0:
                failures.append(
                    f"{name}: oracle_call_reduction {reduction} < 1.0 "
                    f"(adaptive scheduling made the workload MORE "
                    f"expensive)")
        elif reduction is not None:
            failures.append(
                f"{name}: non-numeric oracle_call_reduction {reduction!r}")
    if failures:
        print("scheduler bench schema check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    reductions = [w["oracle_call_reduction"] for w in workloads]
    print(f"scheduler bench schema check OK ({len(workloads)} workloads, "
          f"oracle-call reduction "
          f"{min(reductions):.2f}x..{max(reductions):.2f}x)")
    return 0


def check_storage(path):
    """Validates BENCH_storage.json: the out-of-core segment bench.

    Schema checks always run. The perf floors (10^8-tuple sweep entry,
    sub-millisecond O(1) open, >= 2x SIMD speedup on the contiguous scan
    and the semijoin probe at 200k+ rows) apply only to non-smoke
    recordings: smoke sizes are too small to measure and are flagged in
    the JSON.
    """
    with open(path) as f:
        data = json.load(f)
    failures = []
    if not isinstance(data.get("hardware_threads"), int):
        failures.append("missing/non-integer 'hardware_threads'")
    smoke = data.get("smoke")
    if not isinstance(smoke, bool):
        failures.append("missing/non-boolean 'smoke'")
        smoke = True
    sweep = data.get("open_sweep")
    if not isinstance(sweep, list) or not sweep:
        raise SystemExit(f"{path}: no 'open_sweep' array")
    for e in sweep:
        for key in ("rows", "file_bytes", "pack_ms", "open_us",
                    "inmemory_register_ms"):
            if not isinstance(e.get(key), (int, float)):
                failures.append(f"open_sweep: missing/non-numeric {key!r}")
    if not smoke:
        largest = max(sweep, key=lambda e: e.get("rows", 0))
        if largest.get("rows", 0) < 10**8:
            failures.append(
                f"open_sweep tops out at {largest.get('rows')} rows "
                f"(the recorded artifact must include a 10^8-tuple "
                f"database)")
        if largest.get("open_us", 0) >= 1000.0:
            failures.append(
                f"largest open_us {largest.get('open_us')} >= 1000 "
                f"(segment open must stay O(1): sub-millisecond even at "
                f"10^8 tuples)")
    kernels = data.get("kernels")
    if not isinstance(kernels, list) or not kernels:
        raise SystemExit(f"{path}: no 'kernels' array")
    floored = ("linear_lower_bound_stride1", "linear_lower_bound_stride2",
               "probe_stamps_block")
    for e in kernels:
        for key in ("kernel", "rows", "scalar_ms", "simd_ms", "speedup"):
            if key not in e:
                failures.append(f"kernels: missing {key!r} in {e}")
        if (not smoke and e.get("kernel") in floored
                and e.get("rows", 0) >= 200000
                and isinstance(e.get("speedup"), (int, float))
                and e["speedup"] < 2.0):
            failures.append(
                f"kernel {e['kernel']} at {e['rows']} rows: speedup "
                f"{e['speedup']} < 2.0x (SIMD acceptance floor)")
    if failures:
        print("storage bench schema check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"storage bench schema check OK ({len(sweep)} sweep sizes, "
          f"{len(kernels)} kernel rows{', smoke' if smoke else ''})")
    return 0


def main():
    if len(sys.argv) in (3, 4) and sys.argv[1] == "stats":
        return check_stats(sys.argv[2],
                           sys.argv[3] if len(sys.argv) == 4 else None)
    if len(sys.argv) == 3 and sys.argv[1] == "trace":
        return check_trace(sys.argv[2])
    if len(sys.argv) == 3 and sys.argv[1] == "scheduler":
        return check_scheduler(sys.argv[2])
    if len(sys.argv) == 3 and sys.argv[1] == "storage":
        return check_storage(sys.argv[2])
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main())
