#!/usr/bin/env python3
"""Build and run the benchmark of record.

    python3 perfbench/run.py --workload <integrate_sd|integrate_2x2|serve_mixed>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (and the
library sources it compiles from ../src) into $CARGO_TARGET_DIR, default
.bench_build, then runs one workload. The binary's output passes through
unchanged; its last line is the JSON result. The exit code is the
binary's: 0 when every correctness check passed, non-zero otherwise or
when the build fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("integrate_sd", "integrate_2x2", "serve_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def step(cmd, timeout):
    """Run a build command with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{' '.join(cmd)}: {e}")
        return False
    return done.returncode == 0


def build(build_dir):
    binary = os.path.join(build_dir, "asuca_perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not step(["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
        return None
    if not step(["cmake", "--build", build_dir, "-j", jobs, "--target",
                 "asuca_perfbench"], BUILD_TIMEOUT_S):
        return None
    return binary if os.path.exists(binary) else None


def commit():
    if not os.path.exists(os.path.join(HERE, "..", ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", HERE, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in (0, 600]")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    binary = build(os.path.join(target, "perfbench"))
    if binary is None:
        log("build failed; no result")
        return 2
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    # The thread count, column batch and guarded mode are the benchmark's
    # to set, not the caller's environment's.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ASUCA_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--commit", commit()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s; no result")
        return 3
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log(f"no result line (exit code {done.returncode})")
        return done.returncode or 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
