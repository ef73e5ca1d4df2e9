#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload repeatedly, alternating the order of the workloads from
one repetition to the next, each run with another seed, and prints for each
metric its median, its quartiles and the distance between the quartiles as
a share of the median, next to the metric's bound in BENCHMARK.json. The
raw result lines are written to .bench_build/steady.json.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads zipf-rw --seconds 10

Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{' '.join(cmd)}: exit {p.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first repetition")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    names = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for w in order:
            r = run_once(w, args.seed + i, args.seconds)
            results[w].append(r)
            print(f"run {i + 1}/{args.runs} {w}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)

    os.makedirs(".bench_build", exist_ok=True)
    with open(".bench_build/steady.json", "w") as f:
        json.dump(results, f)

    for w in names:
        rs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print(f"\n{w}: {len(rs)} runs, failed shares {shares}")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in sorted(rs[0]["metrics"]):
            vals = [r["metrics"][m]["value"] for r in rs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(m)
            flag = ""
            if bound is not None and m != "setup_s" and spread > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {m:36} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
