#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Runs the benchmark once per seed on one workload and prints, for each
metric, the median of the runs and the distance between the first and
third quartiles as a share of that median (Python's
statistics.quantiles(values, n=4)). Exact metrics (modelled speedups,
counts) change only with the seed. Run from the repository root:

    python3 perfbench/spread.py --workload where-read --seeds 1-10 --seconds 35
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("-v", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    values = {}
    for seed in args.seeds:
        cmd = COMMAND + ["--workload", args.workload, "--seed", str(seed),
                         "--seconds", str(args.seconds), "--trace", args.trace]
        run = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<44} {'median':>14} {'iqr/median':>11}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        print(f"{name:<44} {med:>14.6g} {spread:>11.4f}")
        if args.v:
            print("    " + " ".join(f"{v:.6g}" for v in vals))


if __name__ == "__main__":
    main()
