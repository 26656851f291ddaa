#!/usr/bin/env python3
"""Run every workload k times and print the median and quartiles of each metric.

Usage (from the repository root):

    python3 servebench/repeat.py [--k 5] [--seconds 10] [--trace 0] [--workload NAME ...]

Each run uses its own seed (1..k). The command comes from BENCHMARK.json,
so this measures exactly what the gate measures.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    for name in names:
        runs = []
        for seed in range(1, args.k + 1):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        ok = all(r["correct"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{name}: {args.k} runs, correct={ok}, failed={failed}")
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {metric:36s} median={med:14.4f} q1={q1:14.4f} q3={q3:14.4f} "
                  f"iqr/median={spread:.4f} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
