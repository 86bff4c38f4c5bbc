#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark under several seeds and
print, for each end-to-end metric, the median, the quartiles, min and max
of its values beside the bound BENCHMARK.json gives it.

The spread is the distance between the first and third quartile as a share
of the median, computed with statistics.quantiles(values, n=4). A bound
is only meaningful when the spread stays well inside it.

Usage, from the repository root:

    python3 e2ebench/spread.py --workload aids-served --seeds 1-10

The benchmark command, run length and bounds come from BENCHMARK.json,
and every run is untraced, so the spreads are those of the gated
end-to-end metrics at the gated run length.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    shares = set()
    walls = []
    for seed in parse_seeds(args.seeds):
        res, wall = run_once(bench["command"], args.workload, seed, seconds)
        walls.append(wall)
        if not res["correct"]:
            raise SystemExit(f"seed {seed}: output check failed")
        shares.add((res["failed"], res["attempted"]) if res["failed"] else 0)
        missing = set(bounds) - set(res["metrics"])
        if missing:
            raise SystemExit(f"seed {seed}: metrics missing: {sorted(missing)}")
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: {wall:.1f} s, attempted {res['attempted']}, failed {res['failed']}",
              file=sys.stderr, flush=True)

    print(f"{args.workload}: {len(walls)} runs, run wall median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s, failed shares {sorted(map(str, shares))}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = "  <-- above a third of the bound" if spread > bound / 3 else ""
        print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {min(vs):12.4f} {max(vs):12.4f} "
              f"{spread:8.3f} {bound:>6}{flag}")


if __name__ == "__main__":
    main()
