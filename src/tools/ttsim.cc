/**
 * @file
 * ttsim: command-line driver for the thread-throttling simulator
 * and the real-thread host runtime.
 *
 * Runs one workload under one scheduling policy -- on a simulated
 * machine configuration, or with --host on a real std::thread worker
 * pool -- and prints the measurements; the one-stop tool for
 * exploring the design space outside the canned benches.
 *
 *   ttsim --workload synthetic --ratio 0.5 --policy dynamic
 *   ttsim --workload streamcluster --dim 36 --policy offline
 *   ttsim --workload sift --machine 2dimm-smt --policy static --mtl 2
 *   ttsim --workload dft --policy online --window 8 --trace
 *   ttsim --host --threads 4 --policy dynamic \
 *         --trace-out trace.json --metrics-out metrics.json
 *
 * Flags:
 *   --workload   synthetic | dft | streamcluster | sift |
 *                stencil | histogram                    [synthetic]
 *   --machine    1dimm | 2dimm | 2dimm-smt | power7       [1dimm]
 *   --policy     conventional | static | dynamic | online |
 *                offline                                  [dynamic]
 *   --mtl        static MTL value                         [1]
 *   --window     monitoring window W                      [16]
 *   --hysteresis IdleBound hysteresis (dynamic)           [0]
 *   --ratio      synthetic T_m1/T_c                       [0.5]
 *   --footprint-kb  synthetic per-task footprint          [512]
 *   --pairs      synthetic pair count                     [128]
 *   --dim        streamcluster input dimension            [128]
 *   --host       run on real threads (synthetic workload only)
 *   --threads    host worker threads                      [4]
 *   --count      host compute-loop repetitions per task   [8]
 *   --no-pin     host mode: skip CPU-affinity pinning
 *   --trace      print the full schedule trace (sim only)
 *   --trace-out FILE    write the schedule as Chrome trace events
 *                       (load in chrome://tracing or Perfetto)
 *   --metrics-out FILE  write the run's metrics registry as JSON
 *   --metrics-summary   print the metrics registry as a table
 *   --health            enable the streaming health detectors
 *                       (obs/health.hh): alert edges land in the
 *                       Chrome trace and obs.alerts_* metrics, and
 *                       a one-line summary prints after the run
 *   --perf-counters     attach hardware counters to every task
 *                       attempt (perf_event_open with --host,
 *                       synthesized from the memory model otherwise)
 *                       and print the run aggregates; if the host
 *                       denies perf access the run degrades to the
 *                       null provider, sets runtime.perf_unavailable
 *                       and still exits 0
 *   --timeseries-out FILE     write periodic run snapshots as JSONL
 *                             (one row per sampling interval; sim
 *                             time in the simulator, wall time with
 *                             --host -- see obs/timeseries.hh)
 *   --timeseries-interval-us US  sampling interval           [100]
 *   --live-metrics PATH  expose the metrics registry live, in
 *                        OpenMetrics text format, while the run is
 *                        in flight: with --host a Unix-domain socket
 *                        at PATH served by a background thread (each
 *                        connection gets one snapshot); on the
 *                        simulator a file at PATH rewritten at each
 *                        simulated interval. Poll either with ttstat.
 *   --live-interval-us US  live interval: simulated time between
 *                        snapshot files on the simulator, wall time
 *                        between metric-shard folds into the served
 *                        registry with --host             [100000]
 *   --quiet      suppress the header
 *
 * Open-loop arrivals (robustness extension; see load/arrival.hh and
 * docs/robustness.md). With --arrival-rate the run becomes open-loop:
 * a seeded generator injects the workload's job pairs at its own pace
 * -- deterministic simulated offsets in the simulator, wall-clock
 * timers with --host -- through bounded admission with
 * ACCEPT/DELAY/SHED backpressure. Requires a single-phase workload.
 *   --arrival-rate R      mean offered load, jobs/second       [off]
 *   --arrival-process     poisson | bursty | diurnal       [poisson]
 *   --arrival-seed S      arrival generator seed                 [1]
 *   --slo-us US           per-job relative deadline, 0 = none    [0]
 *   --queue-cap N         admission backlog bound               [64]
 *   --priority-levels L   job priority classes (SHED keeps the
 *                         highest class only)                    [1]
 *   --service-us US       fitted T_ml for the admission
 *                         predictor T = T_ml + b*T_ql (take both
 *                         from a ttreport queue fit); 0 disables
 *                         predicted-late shedding                [0]
 *   --service-tql-us US   fitted T_ql                            [0]
 *   --slo-fail-threshold F  exit 5 when the run completes but
 *                         SLO attainment lands below F         [off]
 *
 * Fault injection (see fault/fault_plan.hh; applies to --host and
 * the simulator alike, with identical seeded decisions):
 *   --inject-seed S       fault plan seed                    [0]
 *   --inject-fail-p P     task-body exception probability    [0]
 *   --inject-straggler P  straggler probability              [0]
 *   --inject-straggler-x F  straggler latency multiplier     [4]
 *   --inject-corrupt-p P  sample-corruption probability      [0]
 *   --inject-stall-p P    worker-stall probability           [0]
 *   --inject-stall-ms MS  stall duration                     [50]
 *   --inject-arrival-burst P   probability a job's arrival gap is
 *                              compressed 8x (open-loop only) [0]
 *   --inject-deadline-storm P  probability a job's SLO is
 *                              slashed to 25% (open-loop)     [0]
 *   --max-retries N       attempts beyond the first          [3]
 *   --watchdog-ms MS      run deadline, 0 = off (wall time with
 *                         --host; simulated time otherwise)  [0]
 *
 * Exit codes: 0 success; 1 output file could not be written;
 * 2 usage error; 3 watchdog deadline exceeded (run wedged);
 * 4 a task failed after exhausting its retries; 5 the run completed
 * but SLO attainment fell below --slo-fail-threshold.
 */

#include <cstdio>
#include <string>

#include <fstream>
#include <memory>
#include <optional>

#include "core/dynamic_policy.hh"
#include "fault/fault_plan.hh"
#include "load/arrival.hh"
#include "core/online_exhaustive_policy.hh"
#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "obs/analyzer.hh"
#include "obs/chrome_trace.hh"
#include "obs/live.hh"
#include "obs/perf/counters.hh"
#include "obs/perf/perf_event_provider.hh"
#include "obs/perf/sim_counter_provider.hh"
#include "runtime/runtime.hh"
#include "simrt/sim_runtime.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "workloads/dft.hh"
#include "workloads/histogram.hh"
#include "workloads/sift.hh"
#include "workloads/stencil.hh"
#include "workloads/streamcluster.hh"
#include "workloads/synthetic.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--workload synthetic|dft|streamcluster|sift|"
        "stencil|histogram]\n"
        "          [--machine 1dimm|2dimm|2dimm-smt|power7]\n"
        "          [--policy conventional|static|dynamic|online|"
        "offline]\n"
        "          [--mtl K] [--window W] [--hysteresis H]\n"
        "          [--ratio R] [--footprint-kb KB] [--pairs N]\n"
        "          [--dim D] [--host] [--threads T] [--count C]\n"
        "          [--no-pin] [--trace] [--trace-out FILE]\n"
        "          [--metrics-out FILE] [--metrics-summary]\n"
        "          [--health]\n"
        "          [--perf-counters] [--quiet]\n"
        "          [--timeseries-out FILE] "
        "[--timeseries-interval-us US]\n"
        "          [--live-metrics PATH] [--live-interval-us US]\n"
        "          [--arrival-rate R] "
        "[--arrival-process poisson|bursty|diurnal]\n"
        "          [--arrival-seed S] [--slo-us US] [--queue-cap N]\n"
        "          [--priority-levels L] [--service-us US]\n"
        "          [--service-tql-us US] [--slo-fail-threshold F]\n"
        "          [--inject-seed S] [--inject-fail-p P]\n"
        "          [--inject-straggler P] [--inject-straggler-x F]\n"
        "          [--inject-corrupt-p P] [--inject-stall-p P]\n"
        "          [--inject-stall-ms MS] [--inject-arrival-burst P]\n"
        "          [--inject-deadline-storm P] [--max-retries N]\n"
        "          [--watchdog-ms MS]\n"
        "exit codes: 0 ok, 1 output write failed, 2 usage,\n"
        "            3 watchdog fired, 4 task failed after retries,\n"
        "            5 SLO attainment below --slo-fail-threshold\n",
        argv0);
    return 2;
}

/** Write the trace JSON; returns false (with a message) on failure. */
bool
writeTraceFile(const std::string &path, const tt::obs::TraceData &data)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open '%s' for writing\n",
                     path.c_str());
        return false;
    }
    tt::obs::writeChromeTrace(data, out);
    // Write errors (full disk, dead pipe, revoked permissions) only
    // surface on the stream state, not the open -- check after the
    // flush or the file is silently truncated.
    out.flush();
    if (!out) {
        std::fprintf(stderr, "writing '%s' failed (disk full?)\n",
                     path.c_str());
        return false;
    }
    std::printf("chrome trace    %10s\n", path.c_str());
    return true;
}

bool
writeMetricsFile(const std::string &path,
                 const tt::MetricsRegistry &metrics)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open '%s' for writing\n",
                     path.c_str());
        return false;
    }
    metrics.writeJson(out);
    out.flush();
    if (!out) {
        std::fprintf(stderr, "writing '%s' failed (disk full?)\n",
                     path.c_str());
        return false;
    }
    std::printf("metrics json    %10s\n", path.c_str());
    return true;
}

/** Print the run's aggregate hardware-counter line(s). */
void
printCounterSummary(const tt::exec::RunResult &result)
{
    if (!result.has_counters) {
        std::printf("hw counters     unavailable (ran with the null "
                    "provider; see runtime.perf_unavailable)\n");
        return;
    }
    const auto &c = result.counters;
    std::printf("llc misses      %10llu  (%.2f MPKI)\n",
                static_cast<unsigned long long>(c.llc_misses),
                c.instructions > 0
                    ? 1e3 * static_cast<double>(c.llc_misses) /
                          static_cast<double>(c.instructions)
                    : 0.0);
    std::printf("stalled cycles  %10llu  (%.1f%% of %llu cycles, "
                "%.1f stalls/miss)\n",
                static_cast<unsigned long long>(c.stalled_cycles),
                c.cycles > 0 ? 100.0 *
                                   static_cast<double>(c.stalled_cycles) /
                                   static_cast<double>(c.cycles)
                             : 0.0,
                static_cast<unsigned long long>(c.cycles),
                c.llc_misses > 0
                    ? static_cast<double>(c.stalled_cycles) /
                          static_cast<double>(c.llc_misses)
                    : 0.0);
}

/** True when `p` is a probability; complains otherwise. */
bool
checkProbability(const char *flag, double p)
{
    if (p >= 0.0 && p <= 1.0)
        return true;
    std::fprintf(stderr, "--%s must be in [0, 1], got %g\n", flag, p);
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    tt::Flags flags;
    static const std::vector<std::string> known_flags = {
        "help",           "workload",       "machine",
        "policy",         "mtl",            "window",
        "hysteresis",     "ratio",          "footprint-kb",
        "pairs",          "dim",            "host",
        "threads",        "count",          "no-pin",
        "trace",          "trace-out",      "metrics-out",
        "metrics-summary", "perf-counters", "quiet",
        "health",
        "timeseries-out", "timeseries-interval-us",
        "live-metrics",   "live-interval-us",
        "inject-seed",    "inject-fail-p",  "inject-straggler",
        "inject-straggler-x", "inject-corrupt-p", "inject-stall-p",
        "inject-stall-ms", "max-retries",   "watchdog-ms",
        "arrival-rate",   "arrival-process", "arrival-seed",
        "slo-us",         "queue-cap",      "priority-levels",
        "service-us",     "service-tql-us", "slo-fail-threshold",
        "inject-arrival-burst", "inject-deadline-storm",
    };
    if (!flags.parse(argc, argv) || !flags.allowOnly(known_flags) ||
        flags.has("help")) {
        if (!flags.error().empty())
            std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        return usage(argv[0]);
    }

    const bool host_mode = flags.getBool("host");

    // Machine (ignored in --host mode, where the host's threads are
    // the hardware contexts).
    const std::string machine_name =
        flags.getString("machine", "1dimm");
    tt::cpu::MachineConfig machine;
    if (machine_name == "1dimm") {
        machine = tt::cpu::MachineConfig::i7_860_1dimm();
    } else if (machine_name == "2dimm") {
        machine = tt::cpu::MachineConfig::i7_860_2dimm();
    } else if (machine_name == "2dimm-smt") {
        machine = tt::cpu::MachineConfig::i7_860_2dimm_smt();
    } else if (machine_name == "power7") {
        machine = tt::cpu::MachineConfig::power7();
    } else {
        std::fprintf(stderr, "unknown machine '%s'\n",
                     machine_name.c_str());
        return usage(argv[0]);
    }
    const int threads = static_cast<int>(flags.getInt("threads", 4));
    if (host_mode && threads < 1) {
        std::fprintf(stderr, "--threads must be >= 1\n");
        return usage(argv[0]);
    }
    const int n = host_mode ? threads : machine.contexts();

    // Workload.
    const std::string workload = flags.getString("workload", "synthetic");
    tt::stream::TaskGraph graph;
    tt::workloads::HostSynthetic host_workload; // owns host arrays
    if (workload == "synthetic") {
        tt::workloads::SyntheticParams params;
        params.tm1_over_tc = flags.getDouble("ratio", 0.5);
        params.footprint_bytes =
            static_cast<std::uint64_t>(
                flags.getInt("footprint-kb", 512)) *
            1024;
        params.pairs = static_cast<int>(flags.getInt("pairs", 128));
        if (host_mode) {
            host_workload = tt::workloads::buildSyntheticHost(
                params, static_cast<int>(flags.getInt("count", 8)));
            graph = host_workload.graph;
        } else {
            graph = tt::workloads::buildSyntheticSim(machine, params);
        }
    } else if (host_mode) {
        std::fprintf(stderr,
                     "--host supports only the synthetic workload "
                     "(the others carry sim descriptors only)\n");
        return usage(argv[0]);
    } else if (workload == "dft") {
        graph = tt::workloads::dftSim(machine);
    } else if (workload == "streamcluster") {
        graph = tt::workloads::streamclusterSim(
            machine, static_cast<int>(flags.getInt("dim", 128)));
    } else if (workload == "sift") {
        graph = tt::workloads::siftSim(machine);
    } else if (workload == "stencil") {
        tt::workloads::StencilParams params;
        graph = tt::workloads::stencilSim(machine, params);
    } else if (workload == "histogram") {
        tt::workloads::HistogramParams params;
        params.pairs = static_cast<int>(flags.getInt("pairs", 128));
        graph = tt::workloads::histogramSim(machine, params);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload.c_str());
        return usage(argv[0]);
    }
    if (!flags.error().empty()) {
        std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        return usage(argv[0]);
    }

    // Policy.
    const std::string policy_name = flags.getString("policy", "dynamic");
    const int window = static_cast<int>(flags.getInt("window", 16));

    if (!flags.getBool("quiet")) {
        if (host_mode) {
            std::printf("host threads %d, workload %s (%d pairs, "
                        "%d phase(s)), policy %s\n",
                        n, workload.c_str(), graph.pairCount(),
                        graph.phaseCount(), policy_name.c_str());
        } else {
            std::printf("machine %s (%d contexts, %d channel(s)), "
                        "workload %s (%d pairs, %d phase(s)), "
                        "policy %s\n",
                        machine_name.c_str(), n, machine.mem.channels,
                        workload.c_str(), graph.pairCount(),
                        graph.phaseCount(), policy_name.c_str());
        }
    }

    if (policy_name == "offline") {
        if (host_mode) {
            std::fprintf(stderr,
                         "--policy offline is simulator-only\n");
            return usage(argv[0]);
        }
        const auto search =
            tt::simrt::offlineExhaustiveSearch(machine, graph);
        for (std::size_t k = 0; k < search.seconds_per_mtl.size(); ++k)
            std::printf("MTL=%-2zu %10.3f ms%s\n", k + 1,
                        search.seconds_per_mtl[k] * 1e3,
                        static_cast<int>(k) + 1 == search.best_mtl
                            ? "  <-- best"
                            : "");
        return 0;
    }

    std::unique_ptr<tt::core::SchedulingPolicy> policy;
    tt::core::DynamicThrottlePolicy *dynamic_policy = nullptr;
    if (policy_name == "conventional") {
        policy = std::make_unique<tt::core::ConventionalPolicy>(n);
    } else if (policy_name == "static") {
        policy = std::make_unique<tt::core::StaticMtlPolicy>(
            static_cast<int>(flags.getInt("mtl", 1)), n);
    } else if (policy_name == "dynamic") {
        auto dynamic =
            std::make_unique<tt::core::DynamicThrottlePolicy>(n, window);
        dynamic->setIdleBoundHysteresis(
            static_cast<int>(flags.getInt("hysteresis", 0)));
        dynamic_policy = dynamic.get();
        policy = std::move(dynamic);
    } else if (policy_name == "online") {
        policy = std::make_unique<tt::core::OnlineExhaustivePolicy>(
            n, window);
    } else {
        std::fprintf(stderr, "unknown policy '%s'\n",
                     policy_name.c_str());
        return usage(argv[0]);
    }
    if (!flags.error().empty()) {
        std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        return usage(argv[0]);
    }

    // Fault injection.
    tt::fault::FaultConfig fault_config;
    fault_config.seed =
        static_cast<std::uint64_t>(flags.getInt("inject-seed", 0));
    fault_config.fail_p = flags.getDouble("inject-fail-p", 0.0);
    fault_config.straggler_p = flags.getDouble("inject-straggler", 0.0);
    fault_config.straggler_factor =
        flags.getDouble("inject-straggler-x", 4.0);
    fault_config.corrupt_p = flags.getDouble("inject-corrupt-p", 0.0);
    fault_config.stall_p = flags.getDouble("inject-stall-p", 0.0);
    fault_config.stall_seconds =
        flags.getDouble("inject-stall-ms", 50.0) * 1e-3;
    fault_config.arrival_burst_p =
        flags.getDouble("inject-arrival-burst", 0.0);
    fault_config.deadline_storm_p =
        flags.getDouble("inject-deadline-storm", 0.0);
    const int max_retries =
        static_cast<int>(flags.getInt("max-retries", 3));
    const double watchdog_seconds =
        flags.getDouble("watchdog-ms", 0.0) * 1e-3;
    if (!checkProbability("inject-fail-p", fault_config.fail_p) ||
        !checkProbability("inject-straggler",
                          fault_config.straggler_p) ||
        !checkProbability("inject-corrupt-p", fault_config.corrupt_p) ||
        !checkProbability("inject-stall-p", fault_config.stall_p) ||
        !checkProbability("inject-arrival-burst",
                          fault_config.arrival_burst_p) ||
        !checkProbability("inject-deadline-storm",
                          fault_config.deadline_storm_p))
        return 2;
    if (fault_config.straggler_factor < 1.0 ||
        fault_config.stall_seconds < 0.0 || max_retries < 0 ||
        watchdog_seconds < 0.0) {
        std::fprintf(stderr, "fault/watchdog parameters out of range\n");
        return 2;
    }
    if (!flags.error().empty()) {
        std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        return usage(argv[0]);
    }
    std::optional<tt::fault::FaultPlan> fault_plan;
    if (fault_config.enabled() || fault_config.jobFaultsEnabled()) {
        fault_plan.emplace(fault_config);
        if (!flags.getBool("quiet"))
            std::printf("injecting: seed %llu, fail %.3f, straggler "
                        "%.3f x%.1f, corrupt %.3f, stall %.3f "
                        "(%.0f ms)\n",
                        static_cast<unsigned long long>(
                            fault_config.seed),
                        fault_config.fail_p, fault_config.straggler_p,
                        fault_config.straggler_factor,
                        fault_config.corrupt_p, fault_config.stall_p,
                        fault_config.stall_seconds * 1e3);
    }

    // Open-loop arrivals + bounded admission.
    const double arrival_rate = flags.getDouble("arrival-rate", 0.0);
    const double slo_fail_threshold =
        flags.getDouble("slo-fail-threshold", -1.0);
    std::optional<tt::load::ArrivalPlan> arrival_plan;
    tt::load::AdmissionConfig admission;
    if (arrival_rate < 0.0) {
        std::fprintf(stderr, "--arrival-rate must be > 0\n");
        return 2;
    }
    if (slo_fail_threshold > 1.0) {
        std::fprintf(stderr,
                     "--slo-fail-threshold must be in [0, 1]\n");
        return 2;
    }
    if (arrival_rate > 0.0) {
        if (graph.phaseCount() != 1) {
            std::fprintf(stderr,
                         "open-loop arrivals require a single-phase "
                         "workload (got %d phases)\n",
                         graph.phaseCount());
            return 2;
        }
        tt::load::ArrivalConfig arrivals;
        arrivals.seed = static_cast<std::uint64_t>(
            flags.getInt("arrival-seed", 1));
        arrivals.rate = arrival_rate;
        const std::string process_name =
            flags.getString("arrival-process", "poisson");
        if (!tt::load::parseArrivalProcess(process_name.c_str(),
                                           arrivals.process)) {
            std::fprintf(stderr, "unknown arrival process '%s'\n",
                         process_name.c_str());
            return usage(argv[0]);
        }
        arrivals.slo_seconds = flags.getDouble("slo-us", 0.0) * 1e-6;
        arrivals.priority_levels =
            static_cast<int>(flags.getInt("priority-levels", 1));
        admission.queue_cap =
            static_cast<int>(flags.getInt("queue-cap", 64));
        admission.service_tml =
            flags.getDouble("service-us", 0.0) * 1e-6;
        admission.service_tql =
            flags.getDouble("service-tql-us", 0.0) * 1e-6;
        if (!flags.error().empty()) {
            std::fprintf(stderr, "error: %s\n",
                         flags.error().c_str());
            return usage(argv[0]);
        }
        if (arrivals.slo_seconds < 0.0 ||
            arrivals.priority_levels < 1 || admission.queue_cap < 1 ||
            admission.service_tml < 0.0 ||
            admission.service_tql < 0.0) {
            std::fprintf(stderr,
                         "open-loop parameters out of range\n");
            return 2;
        }
        arrival_plan.emplace(tt::load::buildArrivalPlan(
            arrivals, graph.pairCount(),
            fault_plan ? &*fault_plan : nullptr));
        // Under backpressure the dynamic policy pins the last
        // selected MTL instead of probing through the overload.
        if (dynamic_policy != nullptr)
            dynamic_policy->setSloAware();
        if (!flags.getBool("quiet"))
            std::printf("open loop: %s arrivals at %.0f jobs/s, "
                        "SLO %.0f us, queue cap %d\n",
                        tt::load::arrivalProcessName(arrivals.process),
                        arrivals.rate, arrivals.slo_seconds * 1e6,
                        admission.queue_cap);
    }

    tt::MetricsRegistry metrics;
    policy->bindMetrics(&metrics);

    const std::string trace_path = flags.getString("trace-out", "");
    const std::string metrics_path = flags.getString("metrics-out", "");
    const std::string timeseries_path =
        flags.getString("timeseries-out", "");
    const double timeseries_interval =
        flags.getDouble("timeseries-interval-us", 100.0) * 1e-6;
    if (!flags.error().empty()) {
        std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        return usage(argv[0]);
    }
    if (!timeseries_path.empty() && timeseries_interval <= 0.0) {
        std::fprintf(stderr,
                     "--timeseries-interval-us must be > 0\n");
        return 2;
    }
    const std::string live_path = flags.getString("live-metrics", "");
    const double live_interval =
        flags.getDouble("live-interval-us", 100000.0) * 1e-6;
    if (!flags.error().empty()) {
        std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        return usage(argv[0]);
    }
    if (live_interval <= 0.0) {
        std::fprintf(stderr, "--live-interval-us must be > 0\n");
        return 2;
    }
    std::ofstream timeseries_out;
    if (!timeseries_path.empty()) {
        timeseries_out.open(timeseries_path);
        if (!timeseries_out) {
            std::fprintf(stderr, "cannot open '%s' for writing\n",
                         timeseries_path.c_str());
            return 1;
        }
    }
    // Flush + error-check the JSONL stream once the run is over.
    const auto finishTimeseries = [&]() -> bool {
        if (timeseries_path.empty())
            return true;
        timeseries_out.flush();
        if (!timeseries_out) {
            std::fprintf(stderr, "writing '%s' failed (disk full?)\n",
                         timeseries_path.c_str());
            return false;
        }
        std::printf("timeseries      %10s\n", timeseries_path.c_str());
        return true;
    };

    // On abnormal termination (watchdog, tt_assert) still leave the
    // metrics JSON behind for post-mortems; the hooks run before the
    // process exits.
    int metrics_hook = -1;
    if (!metrics_path.empty())
        metrics_hook = tt::registerCrashDumpHook([&metrics,
                                                  metrics_path] {
            std::ofstream out(metrics_path);
            if (out)
                metrics.writeJson(out);
        });
    (void)metrics_hook;

    const bool perf_counters = flags.getBool("perf-counters");

    // The post-run report, one for both backends: the host adds its
    // trace-event count, the sim its T_m/T_c ratio, its DRAM line and
    // the --trace dump. Returns the exit code.
    const auto report = [&](const tt::exec::RunResult &result) -> int {
        if (result.task_retries > 0 || result.task_failures > 0)
            std::printf("task retries    %10ld  (%ld gave up)\n",
                        result.task_retries, result.task_failures);
        if (result.failed) {
            std::fprintf(stderr, "run failed: %s\n",
                         result.failure_reason.c_str());
            if (!metrics_path.empty())
                writeMetricsFile(metrics_path, metrics);
            // Only the sim fails a run in-band on the watchdog.
            return result.watchdog_fired ? tt::exec::kWatchdogExitCode
                                         : 4;
        }

        std::printf("makespan        %10.3f ms\n", result.seconds * 1e3);
        std::printf("avg T_m / T_c   %10.1f / %.1f us",
                    result.avg_tm * 1e6, result.avg_tc * 1e6);
        if (!host_mode)
            std::printf("  (ratio %.2f%%)",
                        100.0 * result.avg_tm / result.avg_tc);
        std::printf("\n");
        if (!host_mode)
            std::printf("DRAM accesses   %10llu  (bus utilisation "
                        "%.1f%%)\n",
                        static_cast<unsigned long long>(
                            result.dram_accesses),
                        result.bus_utilisation * 100.0);
        std::printf("peak mem tasks  %10d\n", result.peak_mem_in_flight);
        if (perf_counters)
            printCounterSummary(result);
        if (result.pin_failures > 0)
            std::printf("pin failures    %10ld  (workers ran "
                        "unpinned)\n",
                        result.pin_failures);
        const int final_mtl = result.mtl_trace.empty()
                                  ? n
                                  : result.mtl_trace.back().second;
        std::printf("final MTL       %10d  (%ld selections, probe "
                    "fraction %.2f%%, %ld stale pairs)\n",
                    final_mtl, result.policy_stats.selections,
                    result.monitor_overhead * 100.0,
                    result.policy_stats.stale_pairs);
        if (host_mode)
            std::printf("trace events    %10zu  (%llu dropped)\n",
                        result.trace.size(),
                        static_cast<unsigned long long>(
                            result.trace_dropped));
        if (result.trace_dropped > 0)
            std::fprintf(stderr,
                         "warning: %llu trace events dropped (over the "
                         "per-context trace capacity) -- attribution "
                         "reports will be incomplete; see "
                         "trace.events_dropped\n",
                         static_cast<unsigned long long>(
                             result.trace_dropped));
        if (result.spans_dropped > 0)
            std::fprintf(stderr,
                         "warning: %llu job spans dropped (over the "
                         "span capacity) -- critical-path attribution "
                         "will be incomplete; see obs.spans_dropped\n",
                         static_cast<unsigned long long>(
                             result.spans_dropped));

        if (arrival_plan) {
            std::printf("jobs offered    %10ld  (admitted %ld, "
                        "delayed %ld, shed %ld, missed %ld)\n",
                        result.jobs_offered, result.jobs_admitted,
                        result.jobs_delayed, result.jobs_shed,
                        result.jobs_deadline_missed);
            const tt::obs::DistSummary response =
                tt::obs::summarize(result.response_seconds);
            std::printf("response time   %10.1f us p50  (p95 %.1f, "
                        "p99 %.1f)\n",
                        response.p50 * 1e6, response.p95 * 1e6,
                        response.p99 * 1e6);
            std::printf("slo attainment  %9.1f%%\n",
                        result.slo_attainment * 100.0);
        }
        if (result.health_enabled) {
            std::uint64_t fired = 0;
            std::uint64_t critical = 0;
            for (const tt::obs::AlertEvent &alert : result.alerts)
                if (alert.edge == tt::obs::AlertEdge::Fired) {
                    ++fired;
                    if (alert.severity ==
                        tt::obs::AlertSeverity::Critical)
                        ++critical;
                }
            std::printf("health alerts   %10llu  (%llu critical, "
                        "%llu dropped)\n",
                        static_cast<unsigned long long>(fired),
                        static_cast<unsigned long long>(critical),
                        static_cast<unsigned long long>(
                            result.alerts_dropped));
            if (result.critical_alert_active)
                std::fprintf(stderr,
                             "warning: a critical health alert was "
                             "still active when the run drained; see "
                             "obs.alerts_active.* in the metrics\n");
        }

        if (!trace_path.empty() &&
            !writeTraceFile(trace_path,
                            tt::exec::toTraceData(graph, result)))
            return 1;
        if (!metrics_path.empty() &&
            !writeMetricsFile(metrics_path, metrics))
            return 1;
        if (!finishTimeseries())
            return 1;
        if (flags.getBool("metrics-summary"))
            std::printf("\n%s", metrics.summaryTable().c_str());

        if (!host_mode && flags.getBool("trace")) {
            std::printf("\nschedule trace (task kind pair phase "
                        "context start_us end_us mtl):\n");
            for (const auto &entry : result.trace) {
                std::printf("%5d %s %5d %3d %3d %12.2f %12.2f %3d\n",
                            entry.task, entry.is_memory ? "M" : "C",
                            entry.pair, entry.phase, entry.worker,
                            entry.start * 1e6, entry.end * 1e6,
                            entry.mtl);
            }
        }

        // Exit 5: completed, but attainment under the threshold.
        if (!arrival_plan || slo_fail_threshold < 0.0 ||
            result.slo_attainment >= slo_fail_threshold)
            return 0;
        std::fprintf(stderr, "SLO attainment %.3f below threshold %.3f\n",
                     result.slo_attainment, slo_fail_threshold);
        return 5;
    };

    // Both backends run one set of engine options. Times count on the
    // engine clock: wall time with --host, simulated time otherwise,
    // where the watchdog fails the run in-band (the event queue's
    // budget still bounds a runaway simulation).
    tt::exec::EngineOptions options;
    options.metrics = &metrics;
    options.fault_plan = fault_plan ? &*fault_plan : nullptr;
    options.arrival_plan = arrival_plan ? &*arrival_plan : nullptr;
    options.admission = admission;
    options.max_task_retries = max_retries;
    options.watchdog_seconds = watchdog_seconds;
    options.health.enabled = flags.getBool("health");
    if (!timeseries_path.empty()) {
        options.timeseries_out = &timeseries_out;
        options.timeseries_interval_seconds = timeseries_interval;
    }
    options.live_interval_seconds = live_interval;

    if (host_mode) {
        options.threads = n;
        options.pin_affinity = !flags.getBool("no-pin");
        // Falls back to the null provider (with one warning) when the
        // kernel denies perf access; the run itself is unaffected.
        std::unique_ptr<tt::obs::perf::CounterProvider> host_counters;
        if (perf_counters) {
            host_counters = tt::obs::perf::makeHostCounterProvider();
            options.counters = host_counters.get();
        }
        // Live OpenMetrics endpoint: a background thread serving one
        // snapshot per connection while the workers run. Losing the
        // endpoint is an observability degradation, not a run
        // failure.
        std::optional<tt::obs::LiveMetricsServer> live_server;
        if (!live_path.empty()) {
            live_server.emplace(live_path, metrics);
            if (!live_server->start()) {
                std::fprintf(stderr,
                             "warning: live metrics endpoint '%s' "
                             "unavailable: %s\n",
                             live_path.c_str(),
                             live_server->error().c_str());
                live_server.reset();
            } else if (!flags.getBool("quiet")) {
                std::printf("live metrics: unix socket %s (poll with "
                            "ttstat)\n",
                            live_path.c_str());
            }
        }
        tt::runtime::Runtime runtime(graph, *policy, options);
        const auto result = runtime.run();
        if (live_server)
            live_server->stop();

        return report(result);
    }

    tt::cpu::SimMachine sim_machine(machine);
    // Simulated runs synthesize the same counter schema from the LLC
    // and DRAM models -- always "available", no kernel involved.
    tt::obs::perf::SimCounterProvider sim_counters;
    if (perf_counters)
        options.counters = &sim_counters;
    // Live metrics on the simulator: the engine rewrites a snapshot
    // file at each simulated interval (there is no wall-clock to
    // serve a socket against).
    std::optional<tt::obs::LiveFileSink> live_sink;
    if (!live_path.empty()) {
        live_sink.emplace(live_path, metrics);
        options.live_sink = &*live_sink;
        if (!flags.getBool("quiet"))
            std::printf("live metrics: snapshot file %s every %.0f us "
                        "simulated (poll with ttstat)\n",
                        live_path.c_str(), live_interval * 1e6);
    }
    tt::simrt::SimRuntime sim_runtime(sim_machine, graph, *policy,
                                      options);
    const auto result = sim_runtime.run();
    // One more snapshot so the file carries the backend-finalized
    // end-of-run registry (sim.* gauges land after the drain).
    if (live_sink) {
        live_sink->snapshot(result.seconds);
        if (!live_sink->ok())
            return 1;
    }

    return report(result);
}
