/**
 * @file
 * Tests of the post-run analysis subsystem: DistSummary order
 * statistics, per-phase/per-MTL attribution, worker accounting, the
 * queuing-decomposition fit, model validation on a real simulated
 * run, the policy decision audit log, report JSON round-tripping
 * through the bundled parser, diffReports regression gating, and the
 * time-series samplers of both runtimes.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/dynamic_policy.hh"
#include "cpu/machine_config.hh"
#include "obs/analyzer.hh"
#include "obs/timeseries.hh"
#include "runtime/runtime.hh"
#include "simrt/sim_runtime.hh"
#include "util/json.hh"
#include "workloads/phased.hh"
#include "workloads/synthetic.hh"

namespace {

using tt::core::DynamicThrottlePolicy;
using tt::core::MtlDecision;
using tt::obs::AnalyzeOptions;
using tt::obs::DiffResult;
using tt::obs::Report;
using tt::obs::TaskEvent;
using tt::obs::TraceData;

TaskEvent
makeEvent(int phase, bool is_memory, int worker, double start,
          double end, int mtl)
{
    TaskEvent e;
    e.phase = phase;
    e.is_memory = is_memory;
    e.worker = worker;
    e.start = start;
    e.end = end;
    e.mtl = mtl;
    return e;
}

TEST(DistSummary, ExactOrderStatistics)
{
    std::vector<double> samples;
    for (int i = 1; i <= 100; ++i)
        samples.push_back(static_cast<double>(i));
    const auto d = tt::obs::summarize(samples);
    EXPECT_EQ(d.count, 100u);
    EXPECT_DOUBLE_EQ(d.mean, 50.5);
    EXPECT_NEAR(d.p50, 50.5, 1e-9);
    EXPECT_NEAR(d.p95, 95.05, 1e-9);
    EXPECT_NEAR(d.p99, 99.01, 1e-9);
    EXPECT_DOUBLE_EQ(d.min, 1.0);
    EXPECT_DOUBLE_EQ(d.max, 100.0);
}

TEST(DistSummary, EmptyIsAllZero)
{
    const auto d = tt::obs::summarize({});
    EXPECT_EQ(d.count, 0u);
    EXPECT_EQ(d.mean, 0.0);
    EXPECT_EQ(d.p99, 0.0);
}

TEST(Analyzer, AttributesEventsToPhasesAndMtls)
{
    TraceData data;
    data.phase_names = {"alpha", "beta"};
    // Phase 0: two memory tasks under MTL 2, one compute task.
    data.events.push_back(makeEvent(0, true, 0, 0.0, 1.0, 2));
    data.events.push_back(makeEvent(0, true, 1, 0.0, 2.0, 2));
    data.events.push_back(makeEvent(0, false, 0, 1.0, 2.0, 2));
    // Phase 1: one memory task under MTL 1.
    data.events.push_back(makeEvent(1, true, 0, 2.0, 5.0, 1));
    data.mtl_trace = {{0.0, 2}, {2.0, 1}};

    AnalyzeOptions options;
    options.cores = 2;
    options.makespan = 5.0;
    const Report report = tt::obs::analyze(data, options);

    ASSERT_EQ(report.phases.size(), 2u);
    const auto &alpha = report.phases[0];
    EXPECT_EQ(alpha.name, "alpha");
    EXPECT_EQ(alpha.pairs, 2);
    EXPECT_DOUBLE_EQ(alpha.tm.mean, 1.5);
    EXPECT_DOUBLE_EQ(alpha.tc.mean, 1.0);
    ASSERT_EQ(alpha.by_mtl.size(), 1u);
    EXPECT_EQ(alpha.by_mtl[0].mtl, 2);
    EXPECT_EQ(alpha.by_mtl[0].pairs, 2);
    // Phase alpha spans [0, 2); MTL 2 was in force throughout.
    EXPECT_DOUBLE_EQ(alpha.by_mtl[0].wall_seconds, 2.0);

    const auto &beta = report.phases[1];
    EXPECT_EQ(beta.name, "beta");
    ASSERT_EQ(beta.by_mtl.size(), 1u);
    EXPECT_EQ(beta.by_mtl[0].mtl, 1);
    EXPECT_DOUBLE_EQ(beta.by_mtl[0].wall_seconds, 3.0);
    EXPECT_DOUBLE_EQ(report.makespan, 5.0);
}

TEST(Analyzer, WorkerAccountingPartitionsMakespan)
{
    TraceData data;
    data.phase_names = {"p"};
    // Worker 0: busy [0,1) and [2,3) -> busy 2, stall 1, idle 1.
    data.events.push_back(makeEvent(0, true, 0, 0.0, 1.0, 1));
    data.events.push_back(makeEvent(0, true, 0, 2.0, 3.0, 1));
    AnalyzeOptions options;
    options.cores = 1;
    options.makespan = 4.0;
    const Report report = tt::obs::analyze(data, options);
    ASSERT_EQ(report.workers.size(), 1u);
    const auto &w = report.workers[0];
    EXPECT_DOUBLE_EQ(w.busy, 2.0);
    EXPECT_DOUBLE_EQ(w.stall, 1.0);
    EXPECT_DOUBLE_EQ(w.idle, 1.0);
    EXPECT_EQ(w.events, 2u);
}

TEST(Analyzer, QueueFitRecoversLinearLatencyModel)
{
    // Construct memory events whose duration is exactly
    // T_ml + b * T_ql with T_ml = 1 and T_ql = 0.5: one solo event
    // (b=1, tm=1.5) and two overlapping ones (b counts in start
    // order: first sees b=1... so give the overlapping pair matching
    // durations from the sweep's perspective).
    TraceData data;
    data.phase_names = {"p"};
    // Solo: b=1 -> tm = 1.5.
    data.events.push_back(makeEvent(0, true, 0, 0.0, 1.5, 2));
    // Pair: first starts at 10 (b=1 -> 1.5), second at 10.1 while
    // the first is still running (b=2 -> 2.0).
    data.events.push_back(makeEvent(0, true, 0, 10.0, 11.5, 2));
    data.events.push_back(makeEvent(0, true, 1, 10.1, 12.1, 2));
    AnalyzeOptions options;
    options.cores = 2;
    const Report report = tt::obs::analyze(data, options);
    ASSERT_EQ(report.phases.size(), 1u);
    const auto &fit = report.phases[0].queue_fit;
    ASSERT_TRUE(fit.valid);
    EXPECT_NEAR(fit.tml, 1.0, 1e-9);
    EXPECT_NEAR(fit.tql, 0.5, 1e-9);
    EXPECT_EQ(fit.samples, 3u);
}

TEST(Analyzer, QueueFitDegenerateWithoutConcurrencyVariation)
{
    TraceData data;
    data.phase_names = {"p"};
    data.events.push_back(makeEvent(0, true, 0, 0.0, 1.0, 1));
    data.events.push_back(makeEvent(0, true, 0, 2.0, 3.0, 1));
    AnalyzeOptions options;
    options.cores = 1;
    const Report report = tt::obs::analyze(data, options);
    EXPECT_FALSE(report.phases[0].queue_fit.valid);
}

/** One seeded adaptive sim run shared by the end-to-end tests. */
struct PhasedRun
{
    tt::exec::RunResult result;
    Report report;
    int cores = 0;
};

PhasedRun
runPhasedDynamic()
{
    const auto machine = tt::cpu::MachineConfig::i7_860_1dimm();
    std::vector<tt::workloads::PhaseSpec> specs(2);
    specs[0].name = "low";
    specs[0].tm1_over_tc = 0.25;
    specs[0].pairs = 96;
    specs[1].name = "high";
    specs[1].tm1_over_tc = 1.5;
    specs[1].pairs = 96;
    const auto graph = tt::workloads::buildPhasedSim(machine, specs);
    DynamicThrottlePolicy policy(machine.contexts(), 8);
    PhasedRun run;
    run.cores = machine.contexts();
    run.result = tt::simrt::runOnce(machine, graph, policy);
    AnalyzeOptions options;
    options.policy = policy.name();
    options.cores = run.cores;
    options.makespan = run.result.seconds;
    options.policy_stats = run.result.policy_stats;
    run.report = tt::obs::analyze(
        tt::exec::toTraceData(graph, run.result), options);
    return run;
}

TEST(Analyzer, ModelValidationOnSimulatedRun)
{
    const PhasedRun run = runPhasedDynamic();
    ASSERT_EQ(run.report.phases.size(), 2u);
    bool any_valid = false;
    for (const auto &phase : run.report.phases) {
        if (!phase.validation.valid)
            continue;
        any_valid = true;
        EXPECT_GE(phase.validation.mtl, 1);
        EXPECT_LE(phase.validation.mtl, run.cores);
        EXPECT_GT(phase.validation.predicted_speedup, 0.0);
        EXPECT_GT(phase.validation.measured_speedup, 0.0);
        // The model should land within a factor of two of reality on
        // this calibrated workload -- this is a sanity bound, not a
        // precision claim.
        EXPECT_LT(phase.validation.abs_error, 1.0);
    }
    EXPECT_TRUE(any_valid);
}

TEST(Analyzer, AuditLogCarriesSelectionInputs)
{
    const PhasedRun run = runPhasedDynamic();
    const auto &decisions = run.report.decisions;
    ASSERT_FALSE(decisions.empty());
    EXPECT_EQ(decisions.front().reason,
              tt::core::DecisionReason::Initial);
    bool any_select = false;
    for (const MtlDecision &d : decisions) {
        EXPECT_GE(d.to_mtl, 1);
        EXPECT_LE(d.to_mtl, run.cores);
        if (d.reason != tt::core::DecisionReason::Select)
            continue;
        any_select = true;
        // Every completed selection records the window that
        // triggered it, its IdleBound and the model's prediction.
        EXPECT_GT(d.window_tm, 0.0);
        EXPECT_GT(d.window_tc, 0.0);
        EXPECT_GE(d.idle_bound, 1);
        EXPECT_GE(d.mtl_no_idle, 1);
        EXPECT_GT(d.predicted_speedup, 0.0);
        EXPECT_GE(d.probes_used, 1);
        EXPECT_FALSE(d.probed_mtls.empty());
    }
    EXPECT_TRUE(any_select);
    // The audit log rides along in the trace stream too.
    EXPECT_EQ(run.result.decisions.size(), decisions.size());
}

TEST(Analyzer, ReportJsonRoundTripsThroughParser)
{
    const PhasedRun run = runPhasedDynamic();
    std::ostringstream os;
    tt::obs::writeReportJson(run.report, os);
    std::string error;
    const auto parsed = tt::json::parse(os.str(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_TRUE(parsed->isObject());
    EXPECT_NEAR(parsed->numberAt("makespan"), run.report.makespan,
                1e-12);
    EXPECT_EQ(parsed->stringAt("policy"), run.report.policy);
    const auto *phases = parsed->find("phases");
    ASSERT_NE(phases, nullptr);
    ASSERT_TRUE(phases->isArray());
    ASSERT_EQ(phases->array.size(), run.report.phases.size());
    EXPECT_EQ(phases->array[0].stringAt("name"),
              run.report.phases[0].name);
    const auto *decisions = parsed->find("decisions");
    ASSERT_NE(decisions, nullptr);
    EXPECT_EQ(decisions->array.size(), run.report.decisions.size());
    // And the table renderer at least mentions every phase.
    const std::string table = tt::obs::reportTable(run.report);
    for (const auto &phase : run.report.phases)
        EXPECT_NE(table.find(phase.name), std::string::npos);
}

TEST(Analyzer, DiffReportsFlagsRegressionsOnly)
{
    const PhasedRun run = runPhasedDynamic();
    std::ostringstream os;
    tt::obs::writeReportJson(run.report, os);
    const auto baseline = tt::json::parse(os.str());
    ASSERT_TRUE(baseline.has_value());

    // Identical reports: clean.
    DiffResult same =
        tt::obs::diffReports(*baseline, *baseline, 0.05);
    EXPECT_FALSE(same.regressed());

    // Inflate the candidate's makespan past the threshold.
    Report slower = run.report;
    slower.makespan *= 1.25;
    std::ostringstream slow_os;
    tt::obs::writeReportJson(slower, slow_os);
    const auto candidate = tt::json::parse(slow_os.str());
    ASSERT_TRUE(candidate.has_value());
    DiffResult diff =
        tt::obs::diffReports(*baseline, *candidate, 0.05);
    ASSERT_FALSE(diff.regressions.empty());
    EXPECT_EQ(diff.regressions.front().metric, "makespan");
    // The improvement direction must NOT trip the gate.
    DiffResult reverse =
        tt::obs::diffReports(*candidate, *baseline, 0.05);
    for (const auto &finding : reverse.regressions)
        EXPECT_NE(finding.metric, "makespan");

    // A dropped phase is a structural mismatch.
    Report fewer = run.report;
    fewer.phases.pop_back();
    std::ostringstream few_os;
    tt::obs::writeReportJson(fewer, few_os);
    const auto partial = tt::json::parse(few_os.str());
    ASSERT_TRUE(partial.has_value());
    DiffResult missing =
        tt::obs::diffReports(*baseline, *partial, 0.05);
    EXPECT_FALSE(missing.notes.empty());
}

TEST(Timeseries, SimSamplerEmitsParsableRowsWithoutSkewingMakespan)
{
    const auto machine = tt::cpu::MachineConfig::i7_860_1dimm();
    tt::workloads::SyntheticParams params;
    params.pairs = 64;
    const auto graph =
        tt::workloads::buildSyntheticSim(machine, params);

    DynamicThrottlePolicy bare_policy(machine.contexts(), 8);
    const double bare_seconds =
        tt::simrt::runOnce(machine, graph, bare_policy).seconds;

    DynamicThrottlePolicy policy(machine.contexts(), 8);
    tt::cpu::SimMachine sim_machine(machine);
    std::ostringstream rows;
    tt::exec::EngineOptions options;
    options.timeseries_out = &rows;
    options.timeseries_interval_seconds = 100e-6;
    tt::simrt::SimRuntime runtime(sim_machine, graph, policy, options);
    const auto result = runtime.run();

    // Sampling must not inflate the reported makespan.
    EXPECT_DOUBLE_EQ(result.seconds, bare_seconds);

    std::istringstream in(rows.str());
    std::string line;
    std::size_t count = 0;
    double last_t = -1.0;
    double last_tasks = 0.0;
    while (std::getline(in, line)) {
        const auto row = tt::json::parse(line);
        ASSERT_TRUE(row.has_value()) << line;
        EXPECT_GE(row->numberAt("t"), last_t);
        last_t = row->numberAt("t");
        last_tasks = row->numberAt("tasks_done");
        EXPECT_GE(row->numberAt("mtl"), 1.0);
        ++count;
    }
    EXPECT_GE(count, 2u);
    EXPECT_EQ(static_cast<int>(last_tasks), graph.taskCount());
}

TEST(Timeseries, HostSamplerEmitsAtLeastOneRow)
{
    tt::workloads::SyntheticParams params;
    params.pairs = 16;
    auto workload = tt::workloads::buildSyntheticHost(params, 2);
    DynamicThrottlePolicy policy(2, 4);
    tt::exec::EngineOptions options;
    options.threads = 2;
    options.pin_affinity = false;
    std::ostringstream rows;
    options.timeseries_out = &rows;
    options.timeseries_interval_seconds = 1e-4;
    tt::runtime::Runtime runtime(workload.graph, policy, options);
    const auto result = runtime.run();
    ASSERT_FALSE(result.failed);

    std::istringstream in(rows.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(in, line)) {
        const auto row = tt::json::parse(line);
        ASSERT_TRUE(row.has_value()) << line;
        ++count;
    }
    EXPECT_GE(count, 1u);
}

} // namespace
