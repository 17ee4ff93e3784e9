#!/usr/bin/env python3
"""Build and run one coebench workload; print its result as JSON.

Usage (from the root of the repository):

    python3 coebench/run.py --workload engine_line --seed 1 \
        --seconds 15 --trace 0

Configures and builds ``coebench/`` (CMake, Release) into
``$CARGO_TARGET_DIR/coebench`` (default ``.bench_build/coebench``), runs
the ``coebench`` binary, checks the telemetry trace that
``preempt_traced`` writes with ``tools/check_trace.py``, and prints the
binary's report followed by one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Build output goes to stderr.
Outputs of the run (span files, telemetry) go to ``.bench_out/``.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("engine_line", "static_4x", "online_slo", "preempt_traced")
# Wall-clock limit for the benchmark binary itself.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "coebench"


def build() -> Path:
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "coebench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        sys.stderr.write(done.stdout)
        if done.returncode != 0:
            raise SystemExit(f"coebench: build step failed: {' '.join(cmd)}")
    return out / "coebench"


def check_trace(path: str) -> bool:
    """Schema-check a telemetry trace with the program's own checker."""
    checker = ROOT / "tools" / "check_trace.py"
    if not checker.exists():
        print(f"coebench: {checker} not found")
        return False
    done = subprocess.run([sys.executable, str(checker), path],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=60)
    print(done.stdout.rstrip())
    return done.returncode == 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(ROOT / ".bench_out")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        raise SystemExit(f"coebench: run failed (exit {done.returncode})")
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    trace_json = result.pop("trace_json", "")
    if trace_json and not check_trace(trace_json):
        print("  CHECK FAILED: telemetry trace fails tools/check_trace.py")
        result["correct"] = False
        result["failed"] = result["attempted"]

    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
