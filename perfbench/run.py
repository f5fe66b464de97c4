#!/usr/bin/env python3
"""Build the fairswap benchmark binary from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 \
        --seconds 30 --trace 0

The binary is built with CMake into .bench_build/perfbench (a no-op when it
is up to date). A host-speed probe runs in its own process before and after
the workload, so it never touches the workload's peak RSS; the probe and the
run's start time are printed as diagnostics, not metrics. The last line of
standard output is the binary's result object. With --trace 1 the fastest
traced pass is also written as a Chrome trace to
.bench_build/perfbench-traces/<workload>-seed<seed>.json.
"""

import argparse
import datetime
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 30


def build():
    """Configures once, then builds the binary; build output goes to stderr."""
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "perfbench")


def probe(binary):
    out = subprocess.run([binary, "--probe"], check=True, capture_output=True,
                         text=True, timeout=PROBE_TIMEOUT_S).stdout
    return out.strip().split("=", 1)[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACES, f"{args.workload}-seed{args.seed}.json")]
    started = datetime.datetime.now(datetime.timezone.utc)
    try:
        probe_before = probe(binary)
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
        probe_after = probe(binary)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(run.stdout, file=sys.stderr)
        print(f"perfbench: no result (exit {run.returncode})", file=sys.stderr)
        return run.returncode or 1
    for line in lines[:-1]:
        print(line)
    print(f"run_start_utc={started.isoformat(timespec='seconds')}")
    print(f"host_probe_ns_per_load before={probe_before} after={probe_after}")
    if not isinstance(result, dict) or "metrics" not in result:
        print(f"perfbench: malformed result: {lines[-1]}", file=sys.stderr)
        return 1
    print(lines[-1])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
