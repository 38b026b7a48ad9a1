#!/usr/bin/env python3
"""Dispatch-throughput regression gate over google-benchmark JSON.

Compares a fresh BENCH_micro_runtime.json against the committed
baseline in bench/baselines/ and fails (exit 1) when any
dispatch-path benchmark lost more than --threshold (default 25%) of
its items_per_second. The gate targets the failure mode that
motivates it -- accidentally serializing a lock-free path, which
costs integer factors, not percent -- so the threshold leaves room
for the timing noise of shared hardware. Only benchmarks present in
BOTH files are compared, so adding a benchmark never breaks the gate
(it starts gating once the baseline is refreshed). The dispatch
benchmarks found on one side only are listed first, before any SKIP,
so a renamed benchmark shows up in the output instead of dropping
out of the comparison silently.

Two defenses keep the gate usable on shared/virtualized hardware,
where run-to-run swings of 10%+ are routine even for unchanged code:

- **Medians, not samples.** When a file carries repeated runs
  (``--benchmark_repetitions=N``), the per-benchmark median is
  compared; `/repeats:N` name decorations are stripped so repeated
  and single-run files compare against each other.
- **Drift correction.** The median throughput ratio across all
  shared benchmarks estimates machine-state drift (CPU steal,
  thermal state) between the two recordings. When the whole suite is
  uniformly slower, losses are measured against that drift rather
  than against the absolute baseline. Only slowdowns are corrected
  (the factor is clamped at 1.0), so a uniformly *faster* machine
  never hides a real regression. The corollary is acknowledged: a
  change that slows every dispatch path by the same factor is
  indistinguishable from machine state here and will not trip the
  gate -- per-path regressions, the common failure mode, still do.

Benchmark timings only compare within one machine: when the context
fingerprint (cpu count, nominal MHz, build type) differs from the
baseline's, or no dispatch benchmark is shared with it, the gate
reports SKIP and exits 77 (SKIP_EXIT), which ctest lists as
"Skipped" rather than passed: no number was compared. Refresh the
baseline on the machine of record with:

    bench/bench_micro_runtime --benchmark_repetitions=5 \
        --json-out bench/baselines/BENCH_micro_runtime.json
"""

import argparse
import json
import re
import statistics
import sys


# The lock-free fast path under the gate: ring ops, MTL admission,
# end-to-end host dispatch, and the wide-machine simulated dispatch
# path. BM_SimDispatch64Contexts used to be excluded (too few
# iterations inside the smoke's time budget); it now runs a pinned
# iteration count, which makes its throughput stable enough to gate.
# ShardedGate matches the admission benchmark's old name, which a
# baseline recorded before BM_MtlGateAdmit still carries, so those
# entries are listed as baseline-only instead of vanishing.
DISPATCH_PATTERN = re.compile(
    r"HostDispatch|HostRuntimePairDispatch|MpmcQueue|MtlGate"
    r"|ShardedGate|SimDispatch",
    re.ASCII)

REPEATS_DECORATION = re.compile(r"/repeats:\d+", re.ASCII)

# Exit status of a skipped comparison; the perf_gate ctest declares it
# as its SKIP_RETURN_CODE.
SKIP_EXIT = 77


def fingerprint(context):
    """Stable machine identity for apples-to-apples comparison."""
    return (
        context.get("num_cpus"),
        context.get("mhz_per_cpu"),
        context.get("library_build_type"),
    )


def throughputs(doc):
    """name -> median items_per_second per dispatch-path benchmark.

    Repetition aggregates are preferred when present; otherwise the
    median over the individual runs sharing a (repeat-stripped) name
    -- which is the run itself for unrepeated files.
    """
    samples = {}
    medians = {}
    for bench in doc.get("benchmarks", []):
        rate = bench.get("items_per_second")
        name = REPEATS_DECORATION.sub(
            "", bench.get("run_name") or bench.get("name", ""))
        if not rate or not DISPATCH_PATTERN.search(name):
            continue
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[name] = float(rate)
        else:
            samples.setdefault(name, []).append(float(rate))
    out = {name: statistics.median(rates)
           for name, rates in samples.items()}
    out.update(medians)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="freshly generated benchmark JSON")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline benchmark JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed fractional loss beyond "
                             "machine drift (default 0.25)")
    args = parser.parse_args()

    with open(args.current, encoding="utf-8") as handle:
        current = json.load(handle)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)

    base_rates = throughputs(baseline)
    cur_rates = throughputs(current)
    for side, names in (("baseline", set(base_rates) - set(cur_rates)),
                        ("current run", set(cur_rates) - set(base_rates))):
        if names:
            print(f"note: {len(names)} dispatch benchmark(s) only in "
                  f"the {side}, not compared:")
            for name in sorted(names):
                print(f"  {name}")

    base_fp = fingerprint(baseline.get("context", {}))
    cur_fp = fingerprint(current.get("context", {}))
    if base_fp != cur_fp:
        print(f"SKIP: machine fingerprint changed "
              f"(baseline {base_fp}, current {cur_fp}); "
              f"refresh the baseline to re-arm the gate")
        return SKIP_EXIT

    shared = sorted(set(base_rates) & set(cur_rates))
    if not shared:
        print("SKIP: no dispatch benchmarks shared with the baseline")
        return SKIP_EXIT

    # Uniform machine drift between the recordings; <= 1.0 so a
    # faster machine today cannot mask a regression.
    drift = min(1.0, statistics.median(
        cur_rates[name] / base_rates[name] for name in shared))
    if drift < 1.0:
        print(f"note: machine drift {drift:.3f}x "
              f"(median ratio over {len(shared)} benchmarks); "
              f"losses measured against drifted baseline")

    failures = []
    for name in shared:
        base = base_rates[name] * drift
        cur = cur_rates[name]
        loss = (base - cur) / base
        status = "FAIL" if loss > args.threshold else "ok"
        print(f"{status:4s} {name:40s} "
              f"{base / 1e6:10.3f}M/s -> {cur / 1e6:10.3f}M/s "
              f"({-loss:+.1%})")
        if loss > args.threshold:
            failures.append(name)

    if failures:
        print(f"FAIL: {len(failures)} dispatch benchmark(s) regressed "
              f"more than {args.threshold:.0%}: {', '.join(failures)}")
        return 1
    print(f"ok: {len(shared)} dispatch benchmark(s) within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
