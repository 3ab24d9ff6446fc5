#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny inputs.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py untraced and
traced, and checks that each metric BENCHMARK.json names is printed, by
name and with its unit, in the run that owns it (end-to-end metrics
untraced, per-layer metrics traced), that the per-layer metrics are those
layers.json maps to an end-to-end metric, and that every answer checked
out. Then it corrupts one reference count and checks that the run reports
a failed request and an incorrect result. Exits 0 when all checks pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    errors = []
    if sorted(m["name"] for m in spec["per_layer"]) != sorted(layers):
        errors.append("per_layer metrics of BENCHMARK.json and layers.json differ")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run(workload, trace)
            where = "%s trace=%d" % (workload, trace)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                errors.append("%s: answers did not check out" % where)
            if set(result["metrics"]) != {m["name"] for m in spec[kind]}:
                errors.append("%s: metric names differ from BENCHMARK.json" % where)
            printed = {line.split()[1]: line.split()[3]
                       for line in lines if line.split()[:1] == [kind]}
            for m in spec[kind]:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"]:
                    errors.append("%s: %s has unit %r" % (where, m["name"], got.get("unit")))
                if printed.get(m["name"]) != m["unit"]:
                    errors.append("%s: %s not printed with its unit" % (where, m["name"]))

    workload = spec["workloads"][0]["name"]
    _, result = run(workload, 0, "--wrong-reference")
    if result["correct"] or result["failed"] < 1:
        errors.append("a wrong reference count was not reported as a failure")

    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
