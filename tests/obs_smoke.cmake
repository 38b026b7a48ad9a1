# End-to-end smoke of the observability tooling, run as a ctest via
# `cmake -P` (see tests/CMakeLists.txt): ttsim writes a time-series
# file, ttreport writes report JSON from two seeded runs, the --diff
# gate exits 0 on identical runs and non-zero on an injected
# regression, the live-telemetry path (--live-metrics + ttstat)
# writes valid OpenMetrics on both backends, and the Chrome trace is
# deterministic on the simulator and complete on the host. Expects
# -DTTSIM=, -DTTREPORT=, -DTTSTAT=, -DWORK_DIR=.

foreach(var TTSIM TTREPORT TTSTAT WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "obs_smoke: missing -D${var}=")
    endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

# 1. ttsim emits a non-empty JSONL time series.
execute_process(
    COMMAND "${TTSIM}" --workload synthetic --policy dynamic
            --pairs 64 --quiet
            --timeseries-out "${WORK_DIR}/ts.jsonl"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ttsim --timeseries-out failed (rc=${rc})")
endif()
file(READ "${WORK_DIR}/ts.jsonl" ts_rows)
if(ts_rows STREQUAL "")
    message(FATAL_ERROR "time-series file is empty")
endif()

# 1b. The real-thread backend drives the same engine and tooling:
# a host run must also produce a non-empty time series.
execute_process(
    COMMAND "${TTSIM}" --host --workload synthetic --policy dynamic
            --pairs 32 --quiet
            --timeseries-out "${WORK_DIR}/ts_host.jsonl"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ttsim --host failed (rc=${rc})")
endif()
file(READ "${WORK_DIR}/ts_host.jsonl" host_rows)
if(host_rows STREQUAL "")
    message(FATAL_ERROR "host time-series file is empty")
endif()

# 1c. Graceful perf degradation: --host --perf-counters must exit 0
# whether or not the kernel grants perf_event_open (CI containers
# usually refuse it -- that is exactly the NullCounterProvider path).
execute_process(
    COMMAND "${TTSIM}" --host --workload synthetic --policy dynamic
            --pairs 32 --quiet --perf-counters
            --metrics-out "${WORK_DIR}/perf_host.json"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "ttsim --host --perf-counters exited ${rc}, want 0 "
            "(degradation must not fail the run)")
endif()
file(READ "${WORK_DIR}/perf_host.json" perf_host)
if(NOT perf_host MATCHES "runtime\\.perf_unavailable")
    message(FATAL_ERROR
            "host metrics lack the runtime.perf_unavailable gauge")
endif()

# 1d. On the simulator the same flag must produce the full schema
# with nonzero aggregates (counters are synthesized, never absent).
execute_process(
    COMMAND "${TTSIM}" --workload synthetic --policy dynamic
            --pairs 64 --quiet --perf-counters
            --metrics-out "${WORK_DIR}/perf_sim.json"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ttsim --perf-counters (sim) failed (rc=${rc})")
endif()
file(READ "${WORK_DIR}/perf_sim.json" perf_sim)
foreach(name llc_misses cycles stalled_cycles instructions)
    if(NOT perf_sim MATCHES "runtime\\.perf\\.${name}")
        message(FATAL_ERROR
                "sim metrics lack runtime.perf.${name}")
    endif()
endforeach()
if(perf_sim MATCHES "\"runtime\\.perf\\.llc_misses\": 0[,}]")
    message(FATAL_ERROR "sim run synthesized zero LLC misses")
endif()

# 1e. Open-loop overload on the simulator: a seeded 2x-overload run
# must complete (exit 0 -- no watchdog, shedding instead of collapse)
# and export the robustness counters in its metrics JSON.
execute_process(
    COMMAND "${TTSIM}" --workload synthetic --policy dynamic
            --pairs 64 --quiet
            --arrival-rate 20000 --arrival-process bursty
            --slo-us 2000 --queue-cap 8
            --service-us 140 --service-tql-us 40
            --metrics-out "${WORK_DIR}/openloop_sim.json"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ttsim open-loop (sim) exited ${rc}, want 0")
endif()
file(READ "${WORK_DIR}/openloop_sim.json" openloop_sim)
foreach(name admitted shed deadline_missed)
    if(NOT openloop_sim MATCHES "runtime\\.jobs_${name}")
        message(FATAL_ERROR "sim metrics lack runtime.jobs_${name}")
    endif()
endforeach()
if(openloop_sim MATCHES "\"runtime\\.jobs_shed\": 0[,}]")
    message(FATAL_ERROR "2x overload run shed no jobs")
endif()

# 1f. The host backend replays the same plan through real threads and
# wall-clock timers; a generous SLO keeps the run green everywhere.
execute_process(
    COMMAND "${TTSIM}" --host --workload synthetic --policy dynamic
            --pairs 32 --quiet
            --arrival-rate 4000 --slo-us 30000000 --queue-cap 64
            --metrics-out "${WORK_DIR}/openloop_host.json"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ttsim open-loop (host) exited ${rc}, want 0")
endif()
file(READ "${WORK_DIR}/openloop_host.json" openloop_host)
if(NOT openloop_host MATCHES "runtime\\.jobs_admitted")
    message(FATAL_ERROR "host metrics lack runtime.jobs_admitted")
endif()

# 1g. The ttreport SLO sweep emits the report's "slo" section with
# per-rate points and a knee.
execute_process(
    COMMAND "${TTREPORT}" --workload synthetic --policy dynamic
            --arrival-rate 5000 --slo-us 2000
            --service-us 140 --service-tql-us 40
            --out "${WORK_DIR}/slo.json"
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ttreport SLO sweep failed (rc=${rc})")
endif()
file(READ "${WORK_DIR}/slo.json" slo_report)
foreach(key "\"slo\"" "\"knee_rate\"" "\"attainment\"")
    if(NOT slo_report MATCHES "${key}")
        message(FATAL_ERROR "SLO report lacks ${key}")
    endif()
endforeach()

# 1h. Live telemetry on the simulator: --live-metrics writes periodic
# OpenMetrics snapshots keyed to simulated time, and ttstat reads the
# file back verbatim.
execute_process(
    COMMAND "${TTSIM}" --workload synthetic --policy dynamic
            --pairs 64 --quiet
            --live-metrics "${WORK_DIR}/live_sim.om"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ttsim --live-metrics (sim) failed (rc=${rc})")
endif()
if(NOT EXISTS "${WORK_DIR}/live_sim.om")
    message(FATAL_ERROR "sim run left no live-metrics snapshot file")
endif()
execute_process(
    COMMAND "${TTSTAT}" "${WORK_DIR}/live_sim.om"
    OUTPUT_VARIABLE live_sim
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ttstat on the sim snapshot failed (rc=${rc})")
endif()
foreach(key "# EOF" "obs_spans_dropped_total"
        "obs_overhead_trace_record_ns_total" "runtime_makespan_seconds"
        "obs_snapshot_time_seconds")
    if(NOT live_sim MATCHES "${key}")
        message(FATAL_ERROR "sim OpenMetrics snapshot lacks '${key}'")
    endif()
endforeach()

# 1i. Live telemetry on the host: a background arrival-paced run
# rewrites its OpenMetrics snapshot file every 10 ms of wall time, and
# ttstat polls it until a snapshot holds the workers' folded
# runtime.tm_seconds histograms but not runtime.makespan_seconds,
# which only the post-run snapshot carries. That snapshot must be
# stamped before the drain (the makespan), so the live tick wrote it
# while the run was in flight.
find_program(SH_PROGRAM sh)
if(SH_PROGRAM)
    file(REMOVE "${WORK_DIR}/live_host.om")
    execute_process(
        COMMAND "${SH_PROGRAM}" -c
            "'${TTSIM}' --host --workload synthetic --policy dynamic \
                 --threads 2 --pairs 200 --count 32 --quiet \
                 --arrival-rate 2000 --slo-us 30000000 --queue-cap 64 \
                 --live-metrics '${WORK_DIR}/live_host.om' \
                 --live-interval-us 10000 > /dev/null & \
             pid=$!; ok=1; \
             for i in $(seq 1 500); do \
                 if '${TTSTAT}' '${WORK_DIR}/live_host.om' \
                         > '${WORK_DIR}/live_host_mid.om' 2>/dev/null && \
                     grep -q runtime_tm_seconds_mtl_ \
                         '${WORK_DIR}/live_host_mid.om' && \
                     ! grep -q runtime_makespan_seconds \
                         '${WORK_DIR}/live_host_mid.om'; then \
                     ok=0; break; \
                 fi; \
                 sleep 0.01; \
             done; \
             wait $pid || ok=1; exit $ok"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "no mid-run host snapshot with folded worker "
                "histograms (rc=${rc})")
    endif()
    file(READ "${WORK_DIR}/live_host_mid.om" live_host)
    if(NOT live_host MATCHES "# EOF")
        message(FATAL_ERROR
                "mid-run host snapshot is not terminated OpenMetrics")
    endif()
    # The file outlives the run, carrying the finished registry.
    execute_process(
        COMMAND "${TTSTAT}" "${WORK_DIR}/live_host.om"
        OUTPUT_VARIABLE live_host_final
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0 OR
       NOT live_host_final MATCHES "\nruntime_makespan_seconds ([^\n]+)")
        message(FATAL_ERROR
                "host run left no final snapshot (rc=${rc})")
    endif()
    set(drain_seconds "${CMAKE_MATCH_1}")
    if(NOT live_host MATCHES "\nobs_snapshot_time_seconds ([^\n]+)")
        message(FATAL_ERROR "mid-run host snapshot has no time stamp")
    endif()
    if(NOT CMAKE_MATCH_1 LESS drain_seconds)
        message(FATAL_ERROR
                "host snapshot with worker histograms was not written "
                "mid-run (stamped ${CMAKE_MATCH_1} s, drain at "
                "${drain_seconds} s)")
    endif()
else()
    message(STATUS "obs_smoke: no sh on PATH, skipping host live poll")
endif()

# 1j. Streaming health detectors under a deadline storm: a bursty
# overload with most SLOs slashed must fire the slo_burn alert during
# the bursts AND clear it in the recovery valleys (hysteresis edges,
# not a stuck alert). Both edge counters land in the metrics JSON.
# 800 jobs at 20k/s span two 20 ms burst periods, so the plan holds a
# full 15 ms valley for the burn EWMAs to decay and clear in.
execute_process(
    COMMAND "${TTSIM}" --workload synthetic --policy dynamic
            --pairs 800 --quiet --health
            --arrival-rate 20000 --arrival-process bursty
            --slo-us 2000 --queue-cap 8
            --service-us 140 --service-tql-us 40
            --inject-deadline-storm 0.9
            --metrics-out "${WORK_DIR}/health_storm.json"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ttsim deadline-storm health run exited ${rc}")
endif()
file(READ "${WORK_DIR}/health_storm.json" health_storm)
if(NOT health_storm MATCHES "obs\\.alerts_fired\\.slo_burn")
    message(FATAL_ERROR "storm metrics lack obs.alerts_fired.slo_burn")
endif()
if(health_storm MATCHES "\"obs\\.alerts_fired\\.slo_burn\": 0[,}]")
    message(FATAL_ERROR
            "deadline storm fired no slo_burn alert")
endif()
if(health_storm MATCHES "\"obs\\.alerts_cleared\\.slo_burn\": 0[,}]")
    message(FATAL_ERROR
            "slo_burn alert never cleared after recovery")
endif()

# 1k. A healthy closed-loop run watched by the same detectors must
# stay quiet: every fired counter is zero and ttstat --alerts exits 0
# (exit 3 is reserved for an active critical alert).
execute_process(
    COMMAND "${TTSIM}" --workload synthetic --policy dynamic
            --pairs 64 --quiet --health
            --metrics-out "${WORK_DIR}/health_quiet.json"
            --live-metrics "${WORK_DIR}/health_quiet.om"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ttsim healthy --health run exited ${rc}")
endif()
file(READ "${WORK_DIR}/health_quiet.json" health_quiet)
if(NOT health_quiet MATCHES "obs\\.alerts_fired\\.")
    message(FATAL_ERROR "healthy run exported no alert schema")
endif()
string(REGEX MATCH "\"obs\\.alerts_fired\\.[a-z_]+\": [1-9]"
       fired_nonzero "${health_quiet}")
if(fired_nonzero)
    message(FATAL_ERROR
            "healthy closed-loop run fired an alert: ${fired_nonzero}")
endif()
execute_process(
    COMMAND "${TTSTAT}" --alerts "${WORK_DIR}/health_quiet.om"
    OUTPUT_VARIABLE quiet_alerts
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "ttstat --alerts on a healthy run exited ${rc}, want 0")
endif()
if(NOT quiet_alerts MATCHES "slo_burn")
    message(FATAL_ERROR
            "ttstat --alerts did not render the detector table")
endif()

# 1l. The Chrome trace: two identically seeded sim runs with injected
# faults and hardware counters write byte-identical trace files, and a
# host run's trace holds one task slice ("ph":"X") per task.
foreach(name a b)
    execute_process(
        COMMAND "${TTSIM}" --workload synthetic --policy dynamic
                --pairs 64 --quiet --perf-counters
                --inject-seed 42 --inject-fail-p 0.1
                --inject-straggler 0.1 --inject-stall-p 0.05
                --inject-stall-ms 1
                --trace-out "${WORK_DIR}/chaos_${name}.trace.json"
        OUTPUT_QUIET
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "ttsim seeded chaos run '${name}' failed (rc=${rc})")
    endif()
endforeach()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/chaos_a.trace.json"
            "${WORK_DIR}/chaos_b.trace.json"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "identically seeded sim runs wrote different Chrome traces")
endif()
execute_process(
    COMMAND "${TTSIM}" --host --workload synthetic --policy dynamic
            --pairs 64 --quiet
            --trace-out "${WORK_DIR}/host.trace.json"
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ttsim --host --trace-out failed (rc=${rc})")
endif()
file(READ "${WORK_DIR}/host.trace.json" host_trace)
string(REGEX MATCHALL "\"ph\":\"X\"" host_slices "${host_trace}")
list(LENGTH host_slices host_slice_count)
if(NOT host_slice_count EQUAL 128)
    message(FATAL_ERROR
            "host trace holds ${host_slice_count} task slices, want 128")
endif()

# 2. Two identical seeded runs produce identical reports: diff passes.
foreach(name a b)
    execute_process(
        COMMAND "${TTREPORT}" --workload phased --policy dynamic
                --out "${WORK_DIR}/${name}.json"
        OUTPUT_QUIET
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "ttreport run '${name}' failed (rc=${rc})")
    endif()
endforeach()
execute_process(
    COMMAND "${TTREPORT}" --diff "${WORK_DIR}/a.json"
            "${WORK_DIR}/b.json"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "diff of identical runs exited ${rc}, want 0")
endif()

# 2b. Report JSON carries the per-job critical-path decomposition
# (spans are always assembled), with every component present.
file(READ "${WORK_DIR}/a.json" report_a)
foreach(key "\"critical_path\"" "\"queue_wait\"" "\"mem_stall\""
        "\"retry_backoff\"")
    if(NOT report_a MATCHES "${key}")
        message(FATAL_ERROR "report JSON lacks ${key}")
    endif()
endforeach()

# 3. A shorter run of the same workload spends a larger share of its
# pairs probing and settles later, so its per-phase latencies regress
# against the baseline -- the gate must catch it.
execute_process(
    COMMAND "${TTREPORT}" --workload phased --policy dynamic
            --pairs 32 --out "${WORK_DIR}/c.json"
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ttreport regressed run failed (rc=${rc})")
endif()
execute_process(
    COMMAND "${TTREPORT}" --diff "${WORK_DIR}/a.json"
            "${WORK_DIR}/c.json"
    RESULT_VARIABLE rc)
if(rc EQUAL 0)
    message(FATAL_ERROR "diff missed the injected regression")
endif()

message(STATUS "obs smoke passed")
