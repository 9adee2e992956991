"""Run-to-run spread of every end-to-end metric on one commit.

    python3 bench/spread.py [--runs N] [--seed S] [--workload W]
                            [--seconds S]

Runs the untraced pass of each workload N times (default 5), run i with
seed S+i, the way the benchmark's driver does, and prints per workload
x metric: median, quartiles, the spread the driver computes
(interquartile range / median, quartiles from
``statistics.quantiles(values, n=4)``), (max-min)/median, and the
metric's bound from BENCHMARK.json.  A spread above a third of its
bound is flagged: the metric needs a longer run or a wider bound.
The table goes to stdout and bench/out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"spread: {workload} seed {seed} exited "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"{args.runs} runs x {args.seconds:g} s, seeds "
          f"{args.seed}..{args.seed + args.runs - 1}")
    print(f"{'workload':16s} {'metric':22s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
    table: dict = {}
    wide = 0
    for workload in workloads:
        runs = [one_run(workload, args.seed + i, args.seconds)
                for i in range(args.runs)]
        for metric, bound in bounds.items():
            values = [run[metric] for run in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            row = {"values": values, "median": med, "q1": q1, "q3": q3,
                   "spread": (q3 - q1) / med,
                   "range": (max(values) - min(values)) / med,
                   "bound": bound}
            table.setdefault(workload, {})[metric] = row
            flag = "" if row["spread"] <= bound / 3 else "  <-- wide"
            wide += bool(flag)
            print(f"{workload:16s} {metric:22s} {med:10.3f} {q1:10.3f} "
                  f"{q3:10.3f} {row['spread']:8.1%} {row['range']:9.1%} "
                  f"{bound:6.0%}{flag}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "spread.json"), "w",
              encoding="utf-8") as f:
        json.dump(table, f, indent=1, sort_keys=True)
    print(f"spread: {wide} metric(s) wider than a third of their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
