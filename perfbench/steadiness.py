#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs perfbench/run.py --trace 0 ten times per workload in each of three
sets, for run_seconds (from BENCHMARK.json) each:

  set 0  seeds 1000..1009, one per run
  set 1  seeds 2000..2009, one per run
  same   seed 3000 on every run

Sets 0 and 1 are what a benchmark check does: per-run seeds, two sets of
the same code. The "same" set repeats one seed, so its spread is host
noise alone, and the gap to the other sets' spread is the share the
seed's inputs add. Workloads and sets alternate run by run, so slow host
phases hit every side alike. For every workload and metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and for set 1 the change of its median against set
0's, signed so that positive means worse.

  python3 perfbench/steadiness.py --json steadiness.json

Run from the repository root; it takes 3 x 10 x 4 benchmark runs (about
an hour and three quarters at 15 s on a 4-vCPU host).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
from run import END_TO_END, WORKLOADS  # noqa: E402

RUNS = 10
SETS = ("0", "1", "same")
LOWER_IS_BETTER = {"step_p50_ms", "step_p99_ms", "setup_s", "peak_rss_mb"}


def seed_of(set_name, i):
    return {"0": 1000 + i, "1": 2000 + i, "same": 3000}[set_name]


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="write the summary here")
    args = parser.parse_args()
    seconds = json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    values = {(s, w): {m: [] for m in END_TO_END}
              for s in SETS for w in WORKLOADS}
    for i in range(RUNS):
        for k, s in enumerate(SETS if i % 2 == 0 else SETS[::-1]):
            for w in (WORKLOADS if (i + k) % 2 == 0 else WORKLOADS[::-1]):
                seed = seed_of(s, i)
                run = one_run(w, seed, seconds)
                for m in END_TO_END:
                    values[(s, w)][m].append(run[m])
                print(f"run {i} set {s} {w} seed {seed}: " +
                      " ".join(f"{m}={run[m]:.6g}" for m in END_TO_END),
                      file=sys.stderr, flush=True)

    summary = {}
    print(f"{'workload':<13} {'metric':<15} {'set':>4} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'vs set 0':>8}")
    for w in WORKLOADS:
        summary[w] = {}
        for m in END_TO_END:
            rows = {s: summarize(values[(s, w)][m]) for s in SETS}
            change = rows["1"]["median"] / rows["0"]["median"] - 1.0
            rows["1"]["worse_vs_set0"] = (
                change if m in LOWER_IS_BETTER else -change)
            summary[w][m] = rows
            for s, row in rows.items():
                worse = row.get("worse_vs_set0")
                print(f"{w:<13} {m:<15} {s:>4} {row['median']:>12.6g} "
                      f"{row['q1']:>12.6g} {row['q3']:>12.6g} "
                      f"{row['spread']:>7.2%} " +
                      (f"{worse:>+8.2%}" if worse is not None else ""))
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"runs": RUNS, "seconds": seconds, "summary": summary},
            indent=1) + "\n")


if __name__ == "__main__":
    main()
