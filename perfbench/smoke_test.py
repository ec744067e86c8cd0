#!/usr/bin/env python3
"""The benchmark's own test: every workload at a smoke size, both modes.

For each workload it runs perfbench/run.py --smoke with --trace 0 and
--trace 1 and checks that the run passes its output checks (fail_frac 0)
and prints exactly the metrics BENCHMARK.json names, with their units.
It also checks that run.py fails without printing a result when the
library sources are missing. Run from the repository root:

  python3 perfbench/smoke_test.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root, workload, trace):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900,
                          check=False)


def main():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        1: {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in manifest["workloads"]):
        for trace in (0, 1):
            done = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{label}: no result (exit {done.returncode})")
                continue
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{label}: failed its output checks")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: unexpected keys {sorted(result)}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json")
            print(f"{label}: ok, {result['attempted']} checked operations")

    # Only the manifest and the benchmark directory: the build must fail
    # and nothing may look like a result.
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    done = run(bare, "codec_live", 0)
    if done.returncode == 0 or done.stdout.strip():
        failures.append("bare directory: run.py did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
