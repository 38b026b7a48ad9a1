#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench binary (CMake, Release) from the checkout into
$CARGO_TARGET_DIR (default .bench_build), then runs one workload:

  --trace 0  set-up is measured in SETUP_PROBES fresh processes plus
             the measuring one and reported as their median; the
             binary repeats the workload for S seconds and reports the
             end-to-end metrics.
  --trace 1  the binary alternates untraced passes with passes under
             the timing decorators, runs the isolated layer drivers
             and reports the per-layer metrics.

The last line of stdout is the JSON result. Its metric names are
checked against BENCHMARK.json. Exits non-zero, without a result,
when the build or the run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-closed", "sim-open-obs", "host-dispatch")
SETUP_PROBES = 6


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    # The binary reads perfbench/goldens and writes .bench_out, both
    # relative to the repository root.
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = subprocess.run(base + ["--setup-only"], check=True,
                                   capture_output=True, text=True, cwd=ROOT)
            setups.append(float(probe.stdout.split()[-1]))

    run = subprocess.run(base + ["--seconds", str(args.seconds),
                                 "--trace", str(args.trace)],
                         capture_output=True, text=True, cwd=ROOT)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run failed with exit code {run.returncode}",
              file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])

    if sorted(result["metrics"]) != sorted(expected_metrics(args.trace)):
        print("perfbench: metric names differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
