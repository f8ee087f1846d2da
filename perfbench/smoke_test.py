#!/usr/bin/env python3
"""Smoke test of the repository benchmark: python3 perfbench/smoke_test.py

Runs every workload at tiny sizes (run.py --smoke), untraced and traced, and
checks that the result line has exactly the contract's keys and that every
metric BENCHMARK.json names is printed with its unit.  run.py itself fails a
traced run whose output digest differs from the untraced one.  Also checks
that a program-variant environment variable makes run.py refuse to run.

city_day and lossy_churn are not in BENCHMARK.json (README.md): the QIP
engine breaks address uniqueness on many city_day seeds and on nearly half
of the lossy_churn repetitions.  Their runs count as expected failures while
the gate reports exactly that defect, and the test says so when they pass
instead.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
# Raised by both the auditor and the strict end-of-run uniqueness check.
KNOWN_DEFECT = "duplicate address"


def run(args, env=None):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=900)


def check_result(p, wanted, label):
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return f"{label}: exit {p.returncode}\n{p.stderr.strip()}"
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"{label}: result keys {sorted(result)}"
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        return f"{label}: correct={result['correct']} failed={result['failed']}"
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        return f"{label}: metric names differ from BENCHMARK.json"
    for m in wanted:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"] or \
                not isinstance(got.get("value"), (int, float)):
            return f"{label}: {m['name']} printed as {got}"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    benchmarked = [w["name"] for w in spec["workloads"]]
    for workload in benchmarked + ["city_day", "lossy_churn"]:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            p = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--smoke"])
            err = check_result(
                p, spec["per_layer"] if trace else spec["end_to_end"], label)
            if workload not in benchmarked:
                if err and KNOWN_DEFECT in p.stderr:
                    print(f"XFAIL {label}: known duplicate-address defect")
                    continue
                if not err:
                    print(f"ok    {label} (passed its gate at smoke size)")
                    continue
            print(("FAIL  " if err else "ok    ") + label)
            if err:
                failures.append(err)

    env = dict(os.environ, QIP_SCHED="heap")
    p = run(["--workload", benchmarked[0], "--trace", "0", "--smoke"], env)
    if p.returncode != 2 or p.stdout.strip():
        failures.append(f"QIP_SCHED set: exit {p.returncode}, expected 2 "
                        "and no result")
    else:
        print("ok    refuses QIP_SCHED")

    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
