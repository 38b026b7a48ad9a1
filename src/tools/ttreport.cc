/**
 * @file
 * ttreport: latency attribution and regression analysis for one run.
 *
 * Run mode executes a workload on the simulator (in process, like
 * ttsim) and renders the obs::analyze() report: per-phase T_m/T_c
 * distributions attributed to the MTL in force, the queuing
 * decomposition fit, predicted-vs-measured model validation,
 * per-worker busy/stall/idle accounting and the policy's decision
 * audit log.
 *
 *   ttreport --workload phased --policy dynamic
 *   ttreport --workload synthetic --ratio 1.2 --json > report.json
 *   ttreport --policy dynamic --out baseline.json
 *
 * Diff mode compares two saved reports and fails when the candidate
 * regresses past the threshold -- the CI gate:
 *
 *   ttreport --diff baseline.json candidate.json --threshold 5
 *
 * SLO sweep mode (robustness extension): with --arrival-rate the run
 * becomes open-loop and ttreport additionally sweeps offered load at
 * 0.25x/0.5x/1x/1.5x/2x the given rate -- each sweep point a fresh
 * simulated run with seeded arrivals through bounded admission (see
 * load/arrival.hh) -- and appends an SLO section: p50/p95/p99
 * response time and shed rate per rate, plus the knee estimate (the
 * lowest swept rate where attainment first drops below 95%). The
 * attribution tables still describe the 1x run. Requires a
 * single-phase workload. diffReports() compares the SLO sections
 * when both reports carry one.
 *
 *   ttreport --workload synthetic --arrival-rate 2000 --slo-us 4000 \
 *            --service-us 60 --service-tql-us 20 --json
 *
 * Flags (run mode mirrors ttsim's simulator subset):
 *   --workload   synthetic | dft | streamcluster | sift | stencil |
 *                histogram | phased                      [phased]
 *   --machine    1dimm | 2dimm | 2dimm-smt | power7       [1dimm]
 *   --policy     conventional | static | dynamic | online [dynamic]
 *   --mtl K --window W --hysteresis H --ratio R
 *   --footprint-kb KB --pairs N --dim D
 *   --arrival-rate R     enable the open-loop SLO sweep      [off]
 *   --arrival-process    poisson | bursty | diurnal     [poisson]
 *   --arrival-seed S     arrival generator seed              [1]
 *   --slo-us US          per-job relative deadline           [0]
 *   --queue-cap N        admission backlog bound            [64]
 *   --service-us US      admission predictor T_ml            [0]
 *   --service-tql-us US  admission predictor T_ql            [0]
 *   --health     enable the streaming health detectors; the report
 *                gains a "health" section (alert counts per rule),
 *                compared by --diff when both sides carry one
 *   --json       print the report as JSON instead of tables
 *   --out FILE   also write the JSON report to FILE
 *   --diff BASELINE.json CANDIDATE.json   compare two reports
 *   --threshold PCT   relative regression threshold, percent  [5]
 *
 * Exit codes: 0 success / no regression; 1 regression found, input
 * unreadable or output write failed; 2 usage error.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/dynamic_policy.hh"
#include "core/online_exhaustive_policy.hh"
#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "load/arrival.hh"
#include "obs/analyzer.hh"
#include "obs/perf/sim_counter_provider.hh"
#include "simrt/sim_runtime.hh"
#include "util/flags.hh"
#include "util/json.hh"
#include "workloads/dft.hh"
#include "workloads/histogram.hh"
#include "workloads/phased.hh"
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
        "stencil|histogram|phased]\n"
        "          [--machine 1dimm|2dimm|2dimm-smt|power7]\n"
        "          [--policy conventional|static|dynamic|online]\n"
        "          [--mtl K] [--window W] [--hysteresis H]\n"
        "          [--ratio R] [--footprint-kb KB] [--pairs N]\n"
        "          [--dim D] [--json] [--out FILE]\n"
        "          [--arrival-rate R] "
        "[--arrival-process poisson|bursty|diurnal]\n"
        "          [--arrival-seed S] [--slo-us US] [--queue-cap N]\n"
        "          [--service-us US] [--service-tql-us US]\n"
        "          [--health]\n"
        "       %s --diff BASELINE.json CANDIDATE.json "
        "[--threshold PCT]\n"
        "exit codes: 0 ok / no regression, 1 regression or I/O "
        "failure, 2 usage\n",
        argv0, argv0);
    return 2;
}

/** Read a whole file; false (with a message) when unreadable. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

int
runDiff(const std::string &baseline_path,
        const std::string &candidate_path, double threshold)
{
    std::string baseline_text;
    std::string candidate_text;
    if (!readFile(baseline_path, baseline_text) ||
        !readFile(candidate_path, candidate_text))
        return 1;
    std::string error;
    const auto baseline = tt::json::parse(baseline_text, &error);
    if (!baseline) {
        std::fprintf(stderr, "parse '%s': %s\n", baseline_path.c_str(),
                     error.c_str());
        return 1;
    }
    const auto candidate = tt::json::parse(candidate_text, &error);
    if (!candidate) {
        std::fprintf(stderr, "parse '%s': %s\n",
                     candidate_path.c_str(), error.c_str());
        return 1;
    }
    const tt::obs::DiffResult diff =
        tt::obs::diffReports(*baseline, *candidate, threshold);
    for (const std::string &note : diff.notes)
        std::printf("MISMATCH  %s\n", note.c_str());
    for (const tt::obs::DiffFinding &finding : diff.regressions)
        std::printf("REGRESSED %s: %.6g -> %.6g (%+.2f%%)\n",
                    finding.metric.c_str(), finding.baseline,
                    finding.candidate, finding.change * 100.0);
    if (!diff.regressed()) {
        std::printf("no regressions past %.2f%% (%s vs %s)\n",
                    threshold * 100.0, candidate_path.c_str(),
                    baseline_path.c_str());
        return 0;
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    tt::Flags flags;
    static const std::vector<std::string> known_flags = {
        "help",    "workload",     "machine", "policy",
        "mtl",     "window",       "hysteresis", "ratio",
        "footprint-kb", "pairs",   "dim",     "json",
        "out",     "diff",         "threshold",
        "arrival-rate", "arrival-process", "arrival-seed",
        "slo-us",  "queue-cap",    "service-us", "service-tql-us",
        "health",
    };
    if (!flags.parse(argc, argv) || !flags.allowOnly(known_flags) ||
        flags.has("help")) {
        if (!flags.error().empty())
            std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        return usage(argv[0]);
    }

    const double threshold =
        flags.getDouble("threshold", 5.0) / 100.0;
    if (!flags.error().empty()) {
        std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        return usage(argv[0]);
    }
    if (threshold < 0.0) {
        std::fprintf(stderr, "--threshold must be >= 0\n");
        return 2;
    }

    if (flags.has("diff")) {
        const std::string baseline = flags.getString("diff", "");
        if (baseline.empty() || flags.positional().size() != 1) {
            std::fprintf(stderr,
                         "--diff needs BASELINE.json CANDIDATE.json\n");
            return usage(argv[0]);
        }
        return runDiff(baseline, flags.positional().front(),
                       threshold);
    }
    if (!flags.positional().empty()) {
        std::fprintf(stderr, "unexpected positional argument '%s'\n",
                     flags.positional().front().c_str());
        return usage(argv[0]);
    }

    // ---- run mode: one simulated run, analysed in process ----------
    const std::string machine_name =
        flags.getString("machine", "1dimm");
    const std::optional<tt::cpu::MachineConfig> preset =
        tt::cpu::MachineConfig::byName(machine_name);
    if (!preset) {
        std::fprintf(stderr, "unknown machine '%s'\n",
                     machine_name.c_str());
        return usage(argv[0]);
    }
    const tt::cpu::MachineConfig machine = *preset;
    const int n = machine.contexts();

    const std::string workload =
        flags.getString("workload", "phased");
    const int pairs = static_cast<int>(flags.getInt("pairs", 128));
    tt::stream::TaskGraph graph;
    if (workload == "synthetic") {
        tt::workloads::SyntheticParams params;
        params.tm1_over_tc = flags.getDouble("ratio", 0.5);
        params.footprint_bytes =
            static_cast<std::uint64_t>(
                flags.getInt("footprint-kb", 512)) *
            1024;
        params.pairs = pairs;
        graph = tt::workloads::buildSyntheticSim(machine, params);
    } else if (workload == "phased") {
        // Three phases crossing the IdleBound in both directions, so
        // an adaptive policy has real transitions to audit.
        std::vector<tt::workloads::PhaseSpec> specs(3);
        specs[0].name = "low-intensity";
        specs[0].tm1_over_tc = 0.25;
        specs[0].pairs = pairs;
        specs[1].name = "high-intensity";
        specs[1].tm1_over_tc = 1.5;
        specs[1].pairs = pairs;
        specs[2].name = "mid-intensity";
        specs[2].tm1_over_tc = 0.6;
        specs[2].pairs = pairs;
        graph = tt::workloads::buildPhasedSim(machine, specs);
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
        params.pairs = pairs;
        graph = tt::workloads::histogramSim(machine, params);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload.c_str());
        return usage(argv[0]);
    }

    const std::string policy_name =
        flags.getString("policy", "dynamic");
    const int window = static_cast<int>(flags.getInt("window", 16));
    // Sweep mode runs the graph several times, and adaptive policies
    // carry state -- every run gets a freshly built policy.
    const auto makePolicy =
        [&](bool slo_aware)
        -> std::unique_ptr<tt::core::SchedulingPolicy> {
        if (policy_name == "conventional")
            return std::make_unique<tt::core::ConventionalPolicy>(n);
        if (policy_name == "static")
            return std::make_unique<tt::core::StaticMtlPolicy>(
                static_cast<int>(flags.getInt("mtl", 1)), n);
        if (policy_name == "dynamic") {
            auto dynamic =
                std::make_unique<tt::core::DynamicThrottlePolicy>(
                    n, window);
            dynamic->setIdleBoundHysteresis(
                static_cast<int>(flags.getInt("hysteresis", 0)));
            if (slo_aware)
                dynamic->setSloAware();
            return dynamic;
        }
        if (policy_name == "online")
            return std::make_unique<
                tt::core::OnlineExhaustivePolicy>(n, window);
        return nullptr;
    };
    if (makePolicy(false) == nullptr) {
        std::fprintf(stderr, "unknown policy '%s'\n",
                     policy_name.c_str());
        return usage(argv[0]);
    }
    if (!flags.error().empty()) {
        std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        return usage(argv[0]);
    }

    // Open-loop SLO sweep configuration.
    const double arrival_rate = flags.getDouble("arrival-rate", 0.0);
    tt::load::ArrivalConfig arrivals;
    tt::load::AdmissionConfig admission;
    if (arrival_rate < 0.0) {
        std::fprintf(stderr, "--arrival-rate must be > 0\n");
        return 2;
    }
    if (arrival_rate > 0.0) {
        if (graph.phaseCount() != 1) {
            std::fprintf(stderr,
                         "the SLO sweep requires a single-phase "
                         "workload (got %d phases)\n",
                         graph.phaseCount());
            return 2;
        }
        arrivals.seed = static_cast<std::uint64_t>(
            flags.getInt("arrival-seed", 1));
        const std::string process_name =
            flags.getString("arrival-process", "poisson");
        if (!tt::load::parseArrivalProcess(process_name.c_str(),
                                           arrivals.process)) {
            std::fprintf(stderr, "unknown arrival process '%s'\n",
                         process_name.c_str());
            return usage(argv[0]);
        }
        arrivals.slo_seconds = flags.getDouble("slo-us", 0.0) * 1e-6;
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
        if (arrivals.slo_seconds < 0.0 || admission.queue_cap < 1 ||
            admission.service_tml < 0.0 ||
            admission.service_tql < 0.0) {
            std::fprintf(stderr, "SLO sweep parameters out of "
                                 "range\n");
            return 2;
        }
    }

    // One simulated run, optionally open-loop; fresh machine, policy
    // and counter provider each time so runs are independent.
    std::string policy_display;
    const auto runSim =
        [&](const tt::load::ArrivalPlan *plan)
        -> tt::exec::RunResult {
        auto policy = makePolicy(plan != nullptr);
        policy_display = policy->name();
        tt::cpu::SimMachine sim_machine(machine);
        // Always attach the synthesized counter provider: the run is
        // deterministic either way, and the interference table turns
        // the report from "where did the time go" into "which MTL
        // let misses queue up".
        tt::obs::perf::SimCounterProvider sim_counters;
        tt::exec::EngineOptions engine_options;
        engine_options.counters = &sim_counters;
        engine_options.arrival_plan = plan;
        engine_options.admission = admission;
        engine_options.health.enabled = flags.getBool("health");
        tt::simrt::SimRuntime sim_runtime(sim_machine, graph, *policy,
                                          engine_options);
        return sim_runtime.run();
    };

    // The swept offered loads, as multiples of --arrival-rate; the
    // 1x run doubles as the attribution run the tables describe.
    static const double kSweepFactors[] = {0.25, 0.5, 1.0, 1.5, 2.0};
    // A rate "degrades" (and can be the knee) below this attainment.
    constexpr double kKneeAttainment = 0.95;

    tt::obs::SloReport slo;
    std::optional<tt::exec::RunResult> main_result;
    if (arrival_rate > 0.0) {
        slo.valid = true;
        slo.slo_seconds = arrivals.slo_seconds;
        for (const double factor : kSweepFactors) {
            tt::load::ArrivalConfig point_config = arrivals;
            point_config.rate = arrival_rate * factor;
            const tt::load::ArrivalPlan plan =
                tt::load::buildArrivalPlan(point_config,
                                           graph.pairCount());
            tt::exec::RunResult result = runSim(&plan);
            if (result.failed) {
                std::fprintf(stderr,
                             "sweep run at %.0f jobs/s failed: %s\n",
                             point_config.rate,
                             result.failure_reason.c_str());
                return 1;
            }
            tt::obs::SloPoint point;
            point.offered_rate = point_config.rate;
            point.offered = result.jobs_offered;
            point.admitted = result.jobs_admitted;
            point.shed = result.jobs_shed;
            point.missed = result.jobs_deadline_missed;
            point.shed_rate =
                result.jobs_offered > 0
                    ? static_cast<double>(result.jobs_shed) /
                          static_cast<double>(result.jobs_offered)
                    : 0.0;
            const tt::obs::DistSummary response =
                tt::obs::summarize(result.response_seconds);
            point.p50 = response.p50;
            point.p95 = response.p95;
            point.p99 = response.p99;
            point.attainment = result.slo_attainment;
            if (point.attainment < kKneeAttainment &&
                slo.knee_rate == 0.0)
                slo.knee_rate = point.offered_rate;
            slo.points.push_back(point);
            if (factor == 1.0)
                main_result = std::move(result);
        }
    } else {
        tt::exec::RunResult result = runSim(nullptr);
        if (result.failed) {
            std::fprintf(stderr, "run failed: %s\n",
                         result.failure_reason.c_str());
            return 1;
        }
        main_result = std::move(result);
    }
    const tt::exec::RunResult &result = *main_result;

    tt::obs::AnalyzeOptions options;
    options.policy = policy_display;
    options.cores = n;
    options.makespan = result.seconds;
    options.policy_stats = result.policy_stats;
    tt::obs::Report report =
        tt::obs::analyze(tt::exec::toTraceData(graph, result),
                         options);
    report.slo = std::move(slo);

    const std::string out_path = flags.getString("out", "");
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (out)
            tt::obs::writeReportJson(report, out);
        out.flush();
        if (!out) {
            std::fprintf(stderr, "writing '%s' failed\n",
                         out_path.c_str());
            return 1;
        }
    }
    if (flags.getBool("json")) {
        std::ostringstream os;
        tt::obs::writeReportJson(report, os);
        std::fputs(os.str().c_str(), stdout);
    } else {
        std::fputs(tt::obs::reportTable(report).c_str(), stdout);
    }
    return 0;
}
