#!/usr/bin/env python3
"""End-to-end benchmark of the lsm libraries (see perfbench/README.md).

Builds the two drivers from this checkout's sources into .bench_build/,
runs one workload, checks its outputs, prints every metric by name with
its unit, and ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

  python3 perfbench/run.py --workload mux_resident --seed 7 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
runs the untraced driver, the traced driver and the untraced driver again
on the same seed, and reports the per-layer metrics of the traced run plus
the tracing overhead: 1 - traced / mean untraced pictures_per_s. It then
runs the untraced driver once more with glibc's default allocation
thresholds and reports that run's pictures_per_s and page faults against
the tuned-allocator runs the end-to-end metrics come from.
--smoke runs a tiny input size.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

WORKLOADS = ["codec_live", "trace_faded", "mux_resident", "mux_churn"]

END_TO_END = {
    "pictures_per_s": "pictures/s",
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds both drivers; cmake output goes to stderr."""
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "lsm_e2e",
         "lsm_e2e_traced", "-j", jobs],
    ]
    # One build at a time per checkout, should runs ever overlap.
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as err:
                print(f"run.py: {' '.join(cmd[:2])} failed: {err}",
                      file=sys.stderr)
                return False
            if done.returncode != 0:
                print(f"run.py: {' '.join(cmd[:2])} exited {done.returncode}",
                      file=sys.stderr)
                return False
    return True


def run_driver(binary, args):
    """Runs one driver; returns its JSON result, or None on a crash."""
    cmd = [str(BUILD / binary)] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {binary} failed: {err}", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        print(f"run.py: {binary} exited {done.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"run.py: {binary} printed no result", file=sys.stderr)
        return None


def describe(result, label):
    stamp = result["stamp"]
    print(f"{label}: workload {result['workload']}, seed {stamp['seed']}: "
          f"{result['steps']} steps in {result['rounds']} rounds, "
          f"{result['setups']} set-ups, {result['pictures']} pictures")
    print(f"  host/build: nproc={stamp['nproc']} "
          f"simd={stamp['simd_detected']}/{stamp['simd_active']} "
          f"compiler={stamp['compiler']} build={stamp['build_type']} "
          f"comparable={stamp['comparable']}")
    if not stamp["comparable"]:
        print("  WARNING: sanitizer or unoptimised build; timings are "
              "flagged and must not be compared")
    if result["failed"]:
        print(f"  FAILED CHECK: {result['first_failure']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input size (the benchmark's own tests)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    if not build():
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")

    if args.trace == 0:
        result = run_driver("lsm_e2e", common)
        if result is None:
            return 3
        describe(result, "untraced")
        for name, unit in END_TO_END.items():
            print(f"  {name:<16} {result['metrics'][name]:>14.6g} {unit}")
        print(f"  {'fail_frac':<16} {result['metrics']['fail_frac']:>14.6g} "
              f"ratio ({result['failed']} of {result['attempted']} operations)")
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        correct = result["correct"]
        attempted, failed = result["attempted"], result["failed"]
    else:
        # Same seed, one set-up each, untraced runs before and after the
        # traced one: their mean is the base the tracing overhead is
        # measured on, so a host that speeds up or slows down during the
        # three runs biases the overhead less.
        untraced_args = common + ["--setups", "1"]
        plain = run_driver("lsm_e2e", untraced_args)
        if plain is None:
            return 3
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.csv"
        spans.parent.mkdir(exist_ok=True)
        traced = run_driver("lsm_e2e_traced",
                            common + ["--setups", "1", "--spans", str(spans)])
        if traced is None:
            return 3
        plain_after = run_driver("lsm_e2e", untraced_args)
        if plain_after is None:
            return 3
        default_malloc = run_driver("lsm_e2e",
                                    untraced_args + ["--default-malloc"])
        if default_malloc is None:
            return 3
        describe(plain, "untraced")
        describe(traced, "traced")
        describe(default_malloc, "untraced, default allocator")
        metrics = dict(traced["layers"])
        untraced_rate = (plain["metrics"]["pictures_per_s"] +
                         plain_after["metrics"]["pictures_per_s"]) / 2
        traced_rate = traced["metrics"]["pictures_per_s"]
        metrics["trace_overhead_frac"] = {
            "value": 1.0 - traced_rate / untraced_rate, "unit": "ratio"}
        # What the tuned allocator thresholds hide: below 1 means the
        # library's allocation churn costs that share with glibc defaults.
        metrics["process.default_malloc_speed_frac"] = {
            "value": default_malloc["metrics"]["pictures_per_s"] /
            untraced_rate, "unit": "ratio"}
        metrics["process.default_malloc_page_faults_per_step"] = {
            "value": default_malloc["page_faults_per_step"], "unit": "count"}
        print(f"  pictures_per_s untraced (mean of 2) {untraced_rate:.6g}, traced "
              f"{traced_rate:.6g} pictures/s; {traced['spans']} spans "
              f"written to {spans.relative_to(ROOT)}")
        for name, metric in metrics.items():
            print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
        runs = (plain, traced, plain_after, default_malloc)
        correct = all(r["correct"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
