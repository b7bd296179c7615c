#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartile of
its values, as a share of their median, next to the metric's bound.

    python3 perfbench/spread.py --workload daemon_hot --seeds 1 2 3 4 5

Run from the repository root after building the benchmark once.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(args.seconds or bench["run_seconds"]),
            "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
            sys.exit(1)
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect run\n{out.stdout}")
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {len(args.seeds)} runs")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above bound/3"
        print(f"  {name:<20} median {med:<14.6g} spread {spread:7.4f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
