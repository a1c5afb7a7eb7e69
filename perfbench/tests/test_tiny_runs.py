#!/usr/bin/env python3
"""Run every perfbench workload at tiny sizes, traced and untraced.

    python3 test_tiny_runs.py <perfbench binary> <BENCHMARK.json>

Checks that each run passes its output checks and prints, in its last line,
exactly the metrics BENCHMARK.json names for that mode, each with its unit,
and that a bad workload name fails without printing a result.
"""

import json
import subprocess
import sys

HAND_RUN = ["paper-light", "paper-heavy"]


def run(binary, *args):
    return subprocess.run([binary, *args], capture_output=True, text=True, timeout=120,
                          check=False)


def main() -> int:
    binary, bench_json = sys.argv[1], sys.argv[2]
    with open(bench_json, encoding="utf-8") as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    listed = [w["name"] for w in bench["workloads"]]
    # Workloads built in but left out of BENCHMARK.json still run by hand.
    for workload in listed + [w for w in HAND_RUN if w not in listed]:
        for trace in ("0", "1"):
            tag = f"{workload} trace={trace}"
            proc = run(binary, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                       "--trace", trace, "--tiny")
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{tag}: checks failed: {proc.stdout}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{tag}: metrics {units} != BENCHMARK.json {expected[trace]}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)):
                    problems.append(f"{tag}: {name} is not a number")
                elif trace == "0" and metric["value"] <= 0:
                    problems.append(f"{tag}: end-to-end {name} = {metric['value']}")
    bad = run(binary, "--workload", "no-such-workload", "--seed", "1", "--seconds", "1",
              "--trace", "0")
    if bad.returncode == 0 or "{" in bad.stdout:
        problems.append("an unknown workload must fail without a result")
    for p in problems:
        print("FAIL:", p)
    if not problems:
        print("every workload prints every named metric with its unit")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
