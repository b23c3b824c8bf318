#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end
metric's median and its spread: the distance between the first and
third quartiles as a share of the median, next to the metric's bound.

Run from the repository root:

    python3 perfbench/spread.py --workload bulk30 --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    lo, hi = (int(x) for x in args.seeds.split("-"))
    runs = []
    for seed in range(lo, hi + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        res = json.loads(last)
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: {last}")
        runs.append(res["metrics"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    worst = 0.0
    for m in spec["end_to_end"]:
        vals = [r[m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        flag = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{m['name']:24s} median {med:12.4f} {m['unit']:6s} spread {spread:7.4f} bound {m['bound']}{flag}")
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
