#!/usr/bin/env python3
"""Smoke check of the benchmark: runs every workload of BENCHMARK.json for
about a second at seed 1, untraced and traced, and requires exit 0, no
failed operation, and every metric BENCHMARK.json names, with its unit.

Run from the root of the repository:

    python3 cipbench/smoke.py
"""
import json
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace, catalogue in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            args = spec["command"] + ["--workload", workload["name"], "--seed", "1",
                                      "--seconds", "1", "--trace", trace]
            run = subprocess.run(args, capture_output=True, text=True, timeout=600)
            where = f"{workload['name']} --trace {trace}"
            before = len(problems)
            if run.returncode != 0:
                problems.append(f"{where}: exit {run.returncode}\n{run.stderr[-2000:]}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            for metric in catalogue:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{where}: metric {metric['name']} missing or not in "
                                    f"{metric['unit']}: {got}")
            extra = set(result["metrics"]) - {m["name"] for m in catalogue}
            if extra:
                problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"{'ok  ' if len(problems) == before else 'FAIL'} {where}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
