#!/bin/sh
# Dispatch-throughput regression gate, run as the perf_gate ctest:
# fresh bench_micro_runtime numbers against the committed baseline
# through bench/check_regression.py. Exits 77 (the ctest's
# SKIP_RETURN_CODE) when nothing can be compared: a sanitizer build,
# no python3, or the script's own skips (machine fingerprint or
# benchmark set differs from the baseline's). The fingerprint is
# compared first, from one cheap benchmark, so a skip costs well
# under a second instead of the whole sweep.
#
# usage: perf_gate.sh SANITIZER PYTHON3 BENCH_MICRO CHECK_REGRESSION \
#                     BASELINE WORK_DIR
#   SANITIZER  "none", or the TT_SANITIZE value of the build
#   PYTHON3    the interpreter; empty or *-NOTFOUND when there is none
set -u
sanitizer=$1 python3=$2 bench=$3 check=$4 baseline=$5 work_dir=$6

if [ "$sanitizer" != none ]; then
    echo "SKIP: TT_SANITIZE=$sanitizer: instrumented timings do not compare"
    exit 77
fi
case $python3 in
'' | *-NOTFOUND)
    echo "SKIP: no python3 to run bench/check_regression.py"
    exit 77
    ;;
esac

mkdir -p "$work_dir" || exit 1
# Any benchmark's JSON carries the machine context: take it from one
# cheap benchmark, and compare it with check_regression.py's own
# fingerprint() before paying for the sweep.
if ! "$bench" --benchmark_filter='^BM_ModelSpeedup$' \
    --benchmark_min_time=0.01 \
    --json-out "$work_dir/fingerprint.json" >/dev/null 2>&1; then
    echo "bench_micro_runtime failed"
    exit 1
fi
"$python3" - "$check" "$work_dir/fingerprint.json" "$baseline" <<'PY'
import importlib.util
import json
import sys

spec = importlib.util.spec_from_file_location("check_regression",
                                              sys.argv[1])
check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check)
prints = []
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as handle:
        prints.append(check.fingerprint(json.load(handle).get("context", {})))
current, baseline = prints
if current != baseline:
    print(f"SKIP: machine fingerprint changed (baseline {baseline}, "
          f"current {current}); refresh the baseline to re-arm the gate")
    sys.exit(check.SKIP_EXIT)
PY
status=$?
[ "$status" -eq 0 ] || exit "$status"

# Five repetitions per benchmark, so the script compares medians, not
# one noisy sample.
if ! "$bench" \
    --benchmark_filter='HostDispatch|HostRuntimePairDispatch|MpmcQueue|MtlGate|SimDispatch' \
    --benchmark_min_time=0.1 --benchmark_repetitions=5 \
    --json-out "$work_dir/bench_micro.json" >/dev/null 2>&1; then
    echo "bench_micro_runtime failed"
    exit 1
fi
exec "$python3" "$check" --current "$work_dir/bench_micro.json" \
    --baseline "$baseline"
