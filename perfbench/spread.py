#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--seconds S] [--out runs.jsonl]

Runs the benchmark once per seed and prints, for each end-to-end metric, the
median of the runs and the distance between their first and third quartile
(Python's statistics.quantiles, n=4) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    """(median, interquartile distance / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="append each run's result line to this file")
    args = ap.parse_args()

    runs = []
    for seed in seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {wall:.0f} s, correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}",
              flush=True)

    print(f"{args.workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
    for m in spec["end_to_end"]:
        med, share = spread([r["metrics"][m["name"]]["value"] for r in runs])
        flag = "ok" if share < m["bound"] / 3 else "WIDE"
        print(f"  {m['name']:<16} median {med:12.4f} {m['unit']:<3} spread {share:7.4f}"
              f"  (bound/3 {m['bound'] / 3:.4f}) {flag}")


if __name__ == "__main__":
    main()
