#!/usr/bin/env python3
"""Run coebench on several seeds and report each metric's spread.

Usage (from the root of the repository):

    python3 coebench/steadiness.py --workloads engine_line static_4x \
        --seeds 1-10 --seconds 15 [--trace 1]

Runs ``coebench/run.py`` once per (workload, seed), one run at a time,
and prints a Markdown table per workload: each metric's median, first
and third quartile (Python's ``statistics.quantiles(values, n=4)``), and
its spread — the interquartile distance as a share of the median —
next to the metric's bound from BENCHMARK.json (end-to-end metrics).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "coebench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    for workload in args.workloads:
        values = {}
        units = {}
        bad = 0
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            bad += 0 if result["correct"] and result["failed"] == 0 else 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n### {workload} (trace={args.trace}, seeds {args.seeds}, "
              f"{args.seconds:g} s per run, {bad} incorrect runs)\n")
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 \
                else (xs[0], xs[0], xs[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"| {name} | {units[name]} | {med:.6g} | {q1:.6g} | "
                  f"{q3:.6g} | {spread:.4f} | "
                  f"{'' if bound is None else bound} |")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
