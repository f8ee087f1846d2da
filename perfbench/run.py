#!/usr/bin/env python3
"""Repository benchmark for the QIP simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or .bench_build,
runs a fixed number of repetitions of the workload, one process each, and
prints as its last stdout line one JSON object: correct, attempted, failed
and metrics.  --trace 0 gives the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones; a traced repetition also runs untraced and the
two output digests must match.  Every input derives from --seed.

A repetition that trips the correctness gate (a duplicate address) is a
failed operation: it counts in `failed`, its numbers are left out and its
replay command goes to stderr.  `correct` is false when a traced run's digest
differs from the untraced one, a repetition crashes, or none passes the gate.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_SRC = os.path.join(ROOT, "perfbench")

DEFAULT_SEED = 1
# Claims must also hold on this seed, which is not used while a change is
# being written (choosing-metrics §6.3).
HELD_OUT_SEED = 20070625

# Nominal seconds per repetition on the reference host (4-CPU x86-64, Release
# build).  The repetition count is a function of --seconds alone, never of
# how fast this host is, so the pooled simulated outcomes stay bit-identical
# between two builds of the program.
NOMINAL_REP_S = {"paper_faceoff": 8.5, "city_blackout": 2.9, "city_day": 2.9,
                 "lossy_churn": 1.25}
# A traced repetition runs the workload twice (untraced, then traced).
TRACED_COST = 2.2

PHASES = [f"phase.{p}.run_s" for p in
          ("flash_crowd", "drift", "departure", "plateau")] + [
          "phase.drift.peak_rss_mib", "phase.departure.peak_rss_mib"]
FAULTS = ["fault.dropped", "fault.duplicated", "fault.blackouts",
          "fault.sends_blocked"]
BASELINES = ["baselines.manetconf.cell_s", "baselines.buddy.cell_s",
             "baselines.ctree.cell_s"]
# Per-layer metrics of layers a workload does not reach (README.md's layer
# table); they read 0.  Only the city workloads have phases, only they run
# without a fault plan, and only paper_faceoff runs the baselines.
BYPASSED = {
    "paper_faceoff": PHASES + FAULTS,
    "city_blackout": FAULTS + BASELINES,
    "city_day": FAULTS + BASELINES,
    "lossy_churn": PHASES + BASELINES,
}

# Environment levers that select a program variant or perturb timing; every
# number must measure the default program.
VARIANT_VARS = (
    "QIP_SCHED", "QIP_TOPO_CACHE", "QIP_TOPO_INCR", "QIP_QUORUM",
    "QIP_AUDIT_GRACE", "QIP_AUDIT_TRACE", "QIP_TRACE_FILE", "QIP_TRACE_BUF",
    "QIP_SCHED_TRACE",
)

# The whole run must end within 180 s of its start, its own build aside.  A
# repetition starts only while RUN_BUDGET_S (counted from the start, or from
# the end of the build when this run compiled) still has room for one as long
# as the longest so far, and no child outlives HARD_LIMIT_S.  On a host several times slower than the reference
# one the run is cut short, and the provenance line says so, rather than
# overrun.
RUN_BUDGET_S = 120
HARD_LIMIT_S = 150
GATE_FAILED = 3  # qip-perfbench's exit status for a tripped correctness gate


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def source_digest():
    """SHA-256 over the path and content of every file the build reads."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(BENCH_SRC, "src"),
             os.path.join(BENCH_SRC, "CMakeLists.txt")]
    for top in roots:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def build():
    """Configures (once) and builds the benchmark; returns the binary path
    and whether this call compiled it.  The build is skipped when the binary
    was built from sources with the same digest, so a checkout whose files
    get new timestamps between runs does not rebuild inside a timed run, and
    a lock makes a second run started meanwhile wait for the build instead
    of racing it."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        binary = os.path.join(out, "qip-perfbench")
        stamp = os.path.join(out, "source.sha256")
        digest = source_digest()
        try:
            with open(stamp) as f:
                if f.read().strip() == digest and os.path.exists(binary):
                    return binary, False
        except OSError:
            pass
        compile_into(out)
        with open(stamp, "w") as f:
            f.write(digest + "\n")
    return binary, True


def compile_into(out):
    """Configures (once) and builds perfbench/ into `out`."""
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_SRC, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                fail(f"configure failed (see {log_path})")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", out, "-j", jobs],
                           stdout=log, stderr=log) != 0:
            fail(f"build failed (see {log_path})")


class GateFailure(Exception):
    """A repetition tripped the correctness gate (a program defect)."""


def run_rep(binary, workload, seed, rep, traced, smoke, timeout, spans=None):
    """Runs one repetition; returns its JSON line as a dict.  Raises
    GateFailure for a tripped gate and RuntimeError for anything else."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--rep", str(rep), "--trace", "1" if traced else "0"]
    if smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", spans]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"rep {rep} killed at the run's {HARD_LIMIT_S} s "
                           f"limit")
    if p.returncode == GATE_FAILED:
        raise GateFailure(p.stderr.strip() + "\n  replay: " + " ".join(cmd))
    if p.returncode != 0:
        raise RuntimeError(p.stderr.strip() or f"rep {rep} exited {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def git_describe():
    try:
        p = subprocess.run(["git", "describe", "--always", "--dirty"],
                           cwd=ROOT, capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unavailable (not a git checkout)"


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler_version():
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        p = subprocess.run([cxx, "--version"], capture_output=True, text=True,
                           timeout=10)
        return p.stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return cxx


def pooled(reps, num, den):
    d = sum(r[den] for r in reps)
    return sum(r[num] for r in reps) / d if d else 0.0


def end_to_end(reps):
    """Host figures are medians over repetitions; the simulated outcomes
    (and allocations per event) are pooled, which spreads less from seed to
    seed than their per-repetition medians."""
    med = lambda key: statistics.median(r[key] for r in reps)
    return {
        "wall_s": med("wall_s"),
        "setup_s": med("setup_s"),
        "peak_rss_mib": med("peak_rss_mib"),
        "end_rss_mib": med("end_rss_mib"),
        "allocs_per_event": pooled(reps, "allocs", "events"),
        "protocol_hops_per_join": pooled(reps, "protocol_hops", "joins"),
        "config_latency_hops": pooled(reps, "latency_sum", "latency_n"),
    }


def per_layer(workload, plain, traced):
    names = set().union(*(r["layers"] for r in traced))
    out = {n: statistics.median(r["layers"][n] for r in traced)
           for n in names}
    # Layers the workload never reaches read 0; any other metric the binary
    # did not compute stays missing, and main() refuses the run.
    for n in BYPASSED.get(workload, ()):
        out.setdefault(n, 0.0)
    # Phase times and memory from the untraced runs (the trace ring buffer
    # would count towards VmHWM).
    for n in names:
        if n.startswith("phase."):
            out[n] = statistics.median(r["layers"].get(n, 0.0) for r in plain)
    out["obs.trace_overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    # Simulated outcome shares, pooled over the untraced repetitions, so a
    # failure episode shows.
    out["config_fail_share"] = pooled(plain, "joins_failed", "joins")
    out["unaddressed_share"] = pooled(plain, "unaddressed", "present")
    return out


def main():
    started_at = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_REP_S))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one repetition (perfbench/smoke_test.py)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    bad = [v for v in VARIANT_VARS if v in os.environ]
    if bad:
        fail("refusing to run with program-variant variables set: "
             + ", ".join(bad), 2)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary, compiled = build()
    load_start = os.getloadavg()
    cost = NOMINAL_REP_S[args.workload] * (TRACED_COST if args.trace else 1.0)
    reps = 1 if args.smoke else max(1, round(args.seconds / cost))

    spans_dir = os.path.join(build_dir(), "spans")
    if args.trace:
        os.makedirs(spans_dir, exist_ok=True)
    plain, traced, gate_failures, errors = [], [], [], []
    # Time spent waiting for another run's build counts towards the limit.
    t0 = time.monotonic() if compiled else started_at
    left = lambda: t0 + HARD_LIMIT_S - time.monotonic()
    longest, done = 0.0, 0
    for k in range(reps):
        started = time.monotonic()
        if started - t0 + longest > RUN_BUDGET_S:
            break
        done += 1
        try:
            r = run_rep(binary, args.workload, args.seed, k, False, args.smoke,
                        left())
            if args.trace:
                spans = os.path.join(
                    spans_dir, f"{args.workload}-s{args.seed}-r{k}.jsonl")
                try:
                    t = run_rep(binary, args.workload, args.seed, k, True,
                                args.smoke, left(), spans)
                except GateFailure as e:
                    raise RuntimeError(f"rep {k} tripped the gate only when "
                                       f"traced: {e}")
                if t["digest"] != r["digest"]:
                    raise RuntimeError(f"rep {k}: traced digest {t['digest']} "
                                       f"!= untraced {r['digest']}")
                traced.append(t)
            plain.append(r)
        except GateFailure as e:
            gate_failures.append(str(e))
        except (RuntimeError, ValueError, KeyError) as e:
            errors.append(str(e))
        longest = max(longest, time.monotonic() - started)
    elapsed = time.monotonic() - t0
    if done < reps:
        print(f"perfbench: run cut short after {done} of {reps} repetitions "
              f"({elapsed:.1f} s; budget {RUN_BUDGET_S} s)", file=sys.stderr)

    provenance = {
        "git": git_describe(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "repetitions": reps,
        "repetitions_run": done,
        "elapsed_s": elapsed,
        "gate_failures": len(gate_failures),
        "digests": [r["digest"] for r in plain],
        # Exact per-repetition outcome counts: at a fixed seed a change that
        # makes one more join fail shows here.
        "joins_failed": [r["joins_failed"] for r in plain],
        "unaddressed": [r["unaddressed"] for r in plain],
        "wall_s_samples": [r["wall_s"] for r in plain],
    }
    print("provenance " + json.dumps(provenance))
    for e in gate_failures:
        print(f"perfbench: correctness gate tripped: {e}", file=sys.stderr)
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)

    correct = bool(plain) and not errors
    metrics = {}
    if correct:
        values = (per_layer(args.workload, plain, traced) if args.trace
                  else end_to_end(plain))
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            fail("metrics not produced: " + ", ".join(missing))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    result = {"correct": correct, "attempted": done,
              "failed": done - len(plain), "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
