"""Run the benchmark several times and report the spread of each metric.

Usage:  python3 perfbench/spread.py WORKLOAD SEED [SEED ...] [--seconds N]

Runs ``run.py --trace 0`` once per seed, one after another, and prints
for each end-to-end metric its values, median, and the distance between
the first and third quartile as a share of the median (the quantity
BENCHMARK.json bounds).  The raw results go to
``.perfbench/spread-<workload>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)

    print(f"{args.workload}: {len(runs)} runs of {seconds} s")
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"  {m['name']:12s} median {med:.5g}  spread {spread:.3f}  "
              f"(bound {m['bound']}, a third is {m['bound'] / 3:.3f})")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", f"spread-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)


if __name__ == "__main__":
    main()
