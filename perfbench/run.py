#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark and the library from source into .bench_build/perfbench
(first run only), generates the workload's dataset there if it is missing,
then runs one measurement. The last line of standard output is the result
object; everything before it is a human-readable report.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("online_cold", "batch_cold", "deep_k5", "live_skew")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {HERE.name}/; nothing to build")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})")
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    data = BUILD / "data"
    base = [str(binary), "--workload", args.workload, "--data", str(data)]
    try:
        prep = subprocess.run(base + ["--prepare"], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("dataset generation timed out")
    if prep.returncode != 0:
        fail("dataset generation failed")

    cmd = base + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}_seed{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(run.stdout)
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(run.stdout)
        fail("malformed result line")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
