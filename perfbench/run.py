#!/usr/bin/env python3
"""End-to-end benchmark of cqcount's CountingEngine.

Run from the repository root:

    python3 perfbench/run.py --workload heavy_single --seed 1 --seconds 10 --trace 0

Builds `perfbench/` (CMake, Release) into $CARGO_TARGET_DIR or
`.bench_build/` on first use, runs one workload as a closed-loop client,
checks every answer against a reference count and prints each metric by
name and unit. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("heavy_single", "batch_mixed", "storage_exact")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 150


class RunError(Exception):
    pass


def run_process(cmd, timeout, capture=False):
    """Runs `cmd` in its own process group; on timeout kills the whole group
    and waits for it. Returns stdout when `capture`, else None."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RunError("%s exited with %d" % (os.path.basename(cmd[0]), proc.returncode))
    return out


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        raise RunError("no cqcount sources next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_process(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S)
    run_process(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
                BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def source_sha256():
    """Digest of the sources the benchmark builds (the checkout need not be a
    git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_binary(binary, args, data_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(data_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    out = run_process(cmd, RUN_TIMEOUT_S, capture=True)
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("perfbench printed no result")
    return json.loads(lines[-1])


def check_digest(build_dir, args, result, sources):
    """Fixed-seed estimates must repeat bit for bit across runs with the same
    seed and sources, traced or not."""
    digest_dir = os.path.join(build_dir, "digests")
    os.makedirs(digest_dir, exist_ok=True)
    key = "%s-%d-%s-%s" % (args.workload, args.seed, "tiny" if args.tiny else "full", sources[:16])
    path = os.path.join(digest_dir, key)
    if os.path.exists(path):
        with open(path) as f:
            if f.read().strip() != result["gate_digest"]:
                return "fixed-seed estimates differ from an earlier run with the same seed"
    else:
        with open(path, "w") as f:
            f.write(result["gate_digest"] + "\n")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test only")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="corrupt one reference count (self-test)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_dir, "perfbench")
    data_dir = os.path.join(build_dir, "data")
    os.makedirs(data_dir, exist_ok=True)
    try:
        binary = build(build_dir)
        result = run_binary(binary, args, data_dir)
        problems = list(result["problems"])
        sources = source_sha256()
        digest_problem = check_digest(build_dir, args, result, sources)
        if digest_problem:
            problems.append(digest_problem)
        layers = result["per_layer"]
    except (RunError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    fingerprint = dict(result["fingerprint"], git_sha=git_sha(), source_sha256=sources)
    correct = result["correct"] and not problems
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    with open(os.path.join(HERE, "layers.json")) as f:
        moves = json.load(f)
    for name, m in result["end_to_end"].items():
        print("end_to_end %-32s %.6g %s" % (name, m["value"], m["unit"]))
    for name, m in result["unbounded"].items():
        print("unbounded  %-32s %.6g %s" % (name, m["value"], m["unit"]))
    for name, m in layers.items():
        hint = moves.get(name, {})
        print("per_layer  %-32s %.6g %s  (moves %s on %s)" % (
            name, m["value"], m["unit"], hint.get("moves"), hint.get("on")))
    info = result["info"]
    print("accuracy   failed_frac %.6g  rel_error_mean %.6g over %d approximate requests" % (
        info["failed_frac"], info["rel_error_mean"], info["approximate_requests"]))
    print("samples    %d latency samples, %d requests, %d set-ups" % (
        info["samples"], info["requests"], info["setup_reps"]))
    for p in problems:
        print("problem    " + p)
    print("verdict    %s" % ("correct" if correct else "INCORRECT"))
    metrics = layers if args.trace else result["end_to_end"]
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
