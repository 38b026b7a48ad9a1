/**
 * @file
 * Tests of the hardware-counter profiling layer: CounterSet delta
 * arithmetic, the deterministic FakeCounterProvider, the sim
 * synthesis formulas, per-attempt attachment through the engine on
 * both backends (including the retries-are-never-merged contract),
 * host/sim metric-schema parity, the analyzer's per-(phase, MTL)
 * interference statistics, and ttreport's forward compatibility
 * with reports written before the counters section existed.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "cpu/sim_machine.hh"
#include "exec/engine.hh"
#include "fault/fault_plan.hh"
#include "mem/dram_config.hh"
#include "obs/analyzer.hh"
#include "obs/chrome_trace.hh"
#include "obs/perf/counters.hh"
#include "obs/perf/sim_counter_provider.hh"
#include "runtime/runtime.hh"
#include "simrt/sim_runtime.hh"
#include "stream/builder.hh"
#include "util/json.hh"
#include "util/stats.hh"

namespace {

using tt::core::StaticMtlPolicy;
using tt::exec::EngineOptions;
using tt::obs::perf::CounterSet;
using tt::obs::perf::FakeCounterProvider;
using tt::obs::perf::NullCounterProvider;
using tt::obs::perf::SimAttemptObservation;
using tt::obs::perf::SimCounterProvider;
using tt::stream::PairSpec;
using tt::stream::StreamProgramBuilder;
using tt::stream::TaskGraph;

/** A little real work so host task bodies take measurable time. */
void
spin()
{
    volatile double acc = 0.0;
    for (int i = 0; i < 20000; ++i)
        acc = acc + static_cast<double>(i);
}

constexpr std::uint64_t kPairBytes = 128 * 1024;

/** A graph both backends can execute. */
TaskGraph
dualGraph(int pairs)
{
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(pairs, [](int) {
        PairSpec spec;
        spec.bytes = kPairBytes;
        spec.compute_cycles = 200000;
        spec.host_memory = [] { spin(); };
        spec.host_compute = [] { spin(); };
        return spec;
    });
    return std::move(builder).build();
}

tt::cpu::MachineConfig
simConfig(int contexts)
{
    auto config = tt::cpu::MachineConfig::i7_860_1dimm();
    config.cores = contexts;
    config.smt_ways = 1;
    return config;
}

CounterSet
makeSet(std::uint64_t misses, std::uint64_t cycles,
        std::uint64_t stalled, std::uint64_t instructions)
{
    CounterSet set;
    set.llc_misses = misses;
    set.cycles = cycles;
    set.stalled_cycles = stalled;
    set.instructions = instructions;
    return set;
}

TEST(CounterSet, DeltaClampsEachFieldIndependently)
{
    const CounterSet later = makeSet(100, 2000, 50, 900);
    const CounterSet earlier = makeSet(40, 2500, 50, 1000);
    const CounterSet delta = later - earlier;
    EXPECT_EQ(delta.llc_misses, 60u);   // normal forward delta
    EXPECT_EQ(delta.cycles, 0u);        // backwards: clamp, not wrap
    EXPECT_EQ(delta.stalled_cycles, 0u);
    EXPECT_EQ(delta.instructions, 0u);

    CounterSet sum = delta;
    sum += makeSet(1, 2, 3, 4);
    EXPECT_EQ(sum, makeSet(61, 2, 3, 4));
    EXPECT_EQ(sum.value(tt::obs::perf::kLlcMisses), 61u);
    EXPECT_EQ(sum.value(tt::obs::perf::kCycles), 2u);
    EXPECT_EQ(sum.value(tt::obs::perf::kStalledCycles), 3u);
    EXPECT_EQ(sum.value(tt::obs::perf::kInstructions), 4u);
}

TEST(CounterSet, SchemaNamesAreStable)
{
    const auto &names = tt::obs::perf::counterNames();
    ASSERT_EQ(names.size(),
              static_cast<std::size_t>(tt::obs::perf::kCounterCount));
    EXPECT_STREQ(names[tt::obs::perf::kLlcMisses], "llc_misses");
    EXPECT_STREQ(names[tt::obs::perf::kCycles], "cycles");
    EXPECT_STREQ(names[tt::obs::perf::kStalledCycles],
                 "stalled_cycles");
    EXPECT_STREQ(names[tt::obs::perf::kInstructions], "instructions");
}

TEST(FakeProvider, PerWorkerStreamsAreIsolatedAndCounted)
{
    FakeCounterProvider fake(makeSet(10, 100, 30, 200));
    fake.prepare(3);
    // Worker w advances by step * (w + 1) per read.
    EXPECT_EQ(fake.read(0), makeSet(10, 100, 30, 200));
    EXPECT_EQ(fake.read(2), makeSet(30, 300, 90, 600));
    EXPECT_EQ(fake.read(0), makeSet(20, 200, 60, 400));
    // Worker 1 never read yet: its totals must be untouched by the
    // other workers' reads. Its first read advances by step * 2.
    fake.advance(1, makeSet(5, 5, 5, 5));
    EXPECT_EQ(fake.read(1), makeSet(25, 205, 65, 405));
    EXPECT_EQ(fake.reads(0), 2);
    EXPECT_EQ(fake.reads(1), 1);
    EXPECT_EQ(fake.reads(2), 1);
}

TEST(NullProvider, ReportsUnavailableAndReadsZero)
{
    NullCounterProvider null;
    EXPECT_EQ(null.name(), "null");
    EXPECT_FALSE(null.available());
    null.prepare(4);
    EXPECT_EQ(null.read(3), CounterSet{});
}

TEST(SimSynthesis, MemoryTaskFormulas)
{
    SimAttemptObservation obs;
    obs.is_memory = true;
    obs.miss_lines = 2048; // 128 KiB / 64 B
    obs.compute_cycles = 0;
    obs.elapsed_seconds = 100e-6;
    obs.clock_hz = 2.8e9;
    const CounterSet set = tt::obs::perf::synthesizeCounters(obs);
    EXPECT_EQ(set.llc_misses, 2048u);
    EXPECT_EQ(set.cycles, 280000u); // 100us * 2.8GHz
    EXPECT_EQ(set.instructions, 2048u * 4);
    // stalled = cycles - 4 cycles issue work per line.
    EXPECT_EQ(set.stalled_cycles, 280000u - 2048u * 4);
}

TEST(SimSynthesis, ComputeTaskStallsClampAtZero)
{
    SimAttemptObservation obs;
    obs.is_memory = false;
    obs.miss_lines = 0;
    obs.compute_cycles = 500000; // more busy work than elapsed cycles
    obs.elapsed_seconds = 100e-6;
    obs.clock_hz = 2.8e9;
    const CounterSet set = tt::obs::perf::synthesizeCounters(obs);
    EXPECT_EQ(set.llc_misses, 0u);
    EXPECT_EQ(set.instructions, 500000u);
    EXPECT_EQ(set.stalled_cycles, 0u); // busy > cycles: clamp
}

/**
 * Tentpole contract on the host engine: every successful attempt is
 * bracketed by exactly two reads, the per-event delta is the
 * provider's per-attempt step, and run totals are the sum of the
 * event deltas.
 */
TEST(HostCounters, EveryEventCarriesItsOwnAttemptDelta)
{
    const TaskGraph graph = dualGraph(12);
    const CounterSet step = makeSet(100, 10000, 4000, 20000);
    FakeCounterProvider fake(step);

    tt::MetricsRegistry metrics;
    EngineOptions options;
    options.threads = 2;
    options.pin_affinity = false;
    options.metrics = &metrics;
    options.counters = &fake;
    StaticMtlPolicy policy(1, 2);
    tt::runtime::Runtime runtime(graph, policy, options);
    const auto result = runtime.run();

    ASSERT_FALSE(result.failed);
    ASSERT_EQ(result.trace.size(), 24u);
    CounterSet expected_total;
    for (const auto &event : result.trace) {
        ASSERT_TRUE(event.has_counters)
            << "task " << event.task << " lost its counters";
        CounterSet expected = step;
        const auto scale =
            static_cast<std::uint64_t>(event.worker + 1);
        expected.llc_misses *= scale;
        expected.cycles *= scale;
        expected.stalled_cycles *= scale;
        expected.instructions *= scale;
        EXPECT_EQ(event.counters, expected)
            << "task " << event.task << " on worker " << event.worker;
        expected_total += event.counters;
    }
    ASSERT_TRUE(result.has_counters);
    EXPECT_EQ(result.counters, expected_total);

    // Available provider: the degradation gauge must read 0, and the
    // aggregate counters must be published under their schema names.
    EXPECT_EQ(metrics.gauge("runtime.perf_unavailable", -1.0), 0.0);
    EXPECT_EQ(metrics.counter("runtime.perf.llc_misses"),
              static_cast<std::int64_t>(expected_total.llc_misses));
}

/**
 * Retried attempts are never merged: a task that failed once and
 * succeeded on retry records attempt > 0 and carries exactly ONE
 * attempt's delta (a merged recording would show a multiple).
 */
TEST(HostCounters, RetriesAreRecordedSeparatelyNeverMerged)
{
    const TaskGraph graph = dualGraph(48);
    tt::fault::FaultConfig config;
    config.seed = 7;
    config.fail_p = 0.08;
    const tt::fault::FaultPlan plan(config);

    const CounterSet step = makeSet(100, 10000, 4000, 20000);
    FakeCounterProvider fake(step);

    EngineOptions options;
    options.threads = 1;
    options.pin_affinity = false;
    options.fault_plan = &plan;
    options.max_task_retries = 3;
    options.retry_backoff_seconds = 20e-6;
    options.counters = &fake;
    StaticMtlPolicy policy(1, 1);
    tt::runtime::Runtime runtime(graph, policy, options);
    const auto result = runtime.run();

    ASSERT_FALSE(result.failed);
    ASSERT_GT(result.task_retries, 0);

    bool saw_retried_event = false;
    for (const auto &event : result.trace) {
        ASSERT_TRUE(event.has_counters);
        // One worker, so the per-attempt delta is exactly `step` --
        // for first-try tasks AND for tasks that needed retries.
        EXPECT_EQ(event.counters, step)
            << "task " << event.task << " attempt " << event.attempt;
        saw_retried_event |= event.attempt > 0;
    }
    EXPECT_TRUE(saw_retried_event);
}

/**
 * Tentpole contract on the simulator: the synthesized schema is
 * complete (nonzero LLC-miss and stall aggregates), and each memory
 * task's miss count is its stream length in cache lines.
 */
TEST(SimCounters, SynthesizedSchemaMatchesMemoryModel)
{
    const TaskGraph graph = dualGraph(16);
    SimCounterProvider sim_counters;
    tt::MetricsRegistry metrics;
    EngineOptions options;
    options.metrics = &metrics;
    options.counters = &sim_counters;

    tt::cpu::SimMachine machine(simConfig(2));
    StaticMtlPolicy policy(1, 2);
    tt::simrt::SimRuntime runtime(machine, graph, policy, options);
    const auto result = runtime.run();

    ASSERT_FALSE(result.failed);
    ASSERT_TRUE(result.has_counters);
    EXPECT_GT(result.counters.llc_misses, 0u);
    EXPECT_GT(result.counters.stalled_cycles, 0u);
    EXPECT_GT(result.counters.cycles, 0u);
    EXPECT_GT(result.counters.instructions, 0u);

    const std::uint64_t lines_per_pair =
        kPairBytes / tt::mem::kLineBytes;
    for (const auto &event : result.trace) {
        ASSERT_TRUE(event.has_counters);
        if (event.is_memory) {
            EXPECT_EQ(event.counters.llc_misses, lines_per_pair)
                << "task " << event.task;
        }
    }
    EXPECT_EQ(metrics.gauge("runtime.perf_unavailable", -1.0), 0.0);
}

/**
 * Schema parity: with a provider attached, host and sim publish the
 * identical "runtime.perf.*" metric names -- and under the null
 * provider the names still exist (zeros), so dashboards never see
 * the schema flap with perf availability.
 */
TEST(CrossBackendCounters, MetricNameSchemaIsIdentical)
{
    const TaskGraph graph = dualGraph(8);

    FakeCounterProvider fake(makeSet(1, 1, 1, 1));
    tt::MetricsRegistry host_metrics;
    EngineOptions host_options;
    host_options.threads = 2;
    host_options.pin_affinity = false;
    host_options.metrics = &host_metrics;
    host_options.counters = &fake;
    StaticMtlPolicy host_policy(1, 2);
    tt::runtime::Runtime host(graph, host_policy, host_options);
    host.run();

    SimCounterProvider sim_counters;
    tt::MetricsRegistry sim_metrics;
    EngineOptions sim_options;
    sim_options.metrics = &sim_metrics;
    sim_options.counters = &sim_counters;
    tt::cpu::SimMachine machine(simConfig(2));
    StaticMtlPolicy sim_policy(1, 2);
    tt::simrt::SimRuntime sim(machine, graph, sim_policy, sim_options);
    sim.run();

    NullCounterProvider null;
    tt::MetricsRegistry null_metrics;
    EngineOptions null_options;
    null_options.threads = 2;
    null_options.pin_affinity = false;
    null_options.metrics = &null_metrics;
    null_options.counters = &null;
    StaticMtlPolicy null_policy(1, 2);
    tt::runtime::Runtime degraded(graph, null_policy, null_options);
    const auto null_result = degraded.run();

    auto names = [](std::vector<std::string> v) {
        return std::set<std::string>(v.begin(), v.end());
    };
    EXPECT_EQ(names(host_metrics.counterNames()),
              names(sim_metrics.counterNames()));
    EXPECT_EQ(names(host_metrics.counterNames()),
              names(null_metrics.counterNames()));
    for (const char *name : tt::obs::perf::counterNames())
        EXPECT_TRUE(names(host_metrics.counterNames())
                        .count("runtime.perf." + std::string(name)))
            << name;

    // Null degradation: flagged, zeros, run unaffected.
    ASSERT_FALSE(null_result.failed);
    EXPECT_FALSE(null_result.has_counters);
    EXPECT_EQ(null_metrics.gauge("runtime.perf_unavailable", -1.0),
              1.0);
    EXPECT_TRUE(null_metrics.hasCounter("runtime.perf.llc_misses"));
    EXPECT_EQ(null_metrics.counter("runtime.perf.llc_misses"), 0);
}

/** A report built from one deterministic sim run with counters. */
tt::obs::Report
analyzedSimReport(tt::exec::RunResult *out_result = nullptr)
{
    const TaskGraph graph = dualGraph(16);
    SimCounterProvider sim_counters;
    EngineOptions options;
    options.counters = &sim_counters;
    tt::cpu::SimMachine machine(simConfig(2));
    StaticMtlPolicy policy(1, 2);
    tt::simrt::SimRuntime runtime(machine, graph, policy, options);
    const auto result = runtime.run();
    tt::obs::AnalyzeOptions analyze_options;
    analyze_options.policy = "static";
    analyze_options.cores = 2;
    analyze_options.makespan = result.seconds;
    if (out_result != nullptr)
        *out_result = result;
    return tt::obs::analyze(tt::exec::toTraceData(graph, result),
                            analyze_options);
}

TEST(AnalyzerCounters, PerPhaseAndPerMtlStatsAreConsistent)
{
    tt::exec::RunResult result;
    const tt::obs::Report report = analyzedSimReport(&result);

    ASSERT_TRUE(report.has_counters);
    EXPECT_EQ(report.counters.llc_misses, result.counters.llc_misses);
    EXPECT_EQ(report.counters.stalled_cycles,
              result.counters.stalled_cycles);

    ASSERT_EQ(report.phases.size(), 1u);
    const auto &phase = report.phases[0];
    ASSERT_TRUE(phase.counters.present);
    EXPECT_EQ(phase.counters.llc_misses, report.counters.llc_misses);

    // Per-MTL buckets partition the phase totals.
    std::uint64_t mtl_misses = 0;
    std::uint64_t mtl_stalled = 0;
    for (const auto &attribution : phase.by_mtl) {
        ASSERT_TRUE(attribution.counters.present);
        mtl_misses += attribution.counters.llc_misses;
        mtl_stalled += attribution.counters.stalled_cycles;
    }
    EXPECT_EQ(mtl_misses, phase.counters.llc_misses);
    EXPECT_EQ(mtl_stalled, phase.counters.stalled_cycles);

    // Derived ratios match their definitions.
    const auto &c = phase.counters;
    EXPECT_NEAR(c.mpki,
                1e3 * static_cast<double>(c.llc_misses) /
                    static_cast<double>(c.instructions),
                1e-9);
    EXPECT_NEAR(c.stall_share,
                static_cast<double>(c.stalled_cycles) /
                    static_cast<double>(c.cycles),
                1e-9);
    EXPECT_NEAR(c.stalls_per_miss,
                static_cast<double>(c.stalled_cycles) /
                    static_cast<double>(c.llc_misses),
                1e-9);
    EXPECT_GT(c.achieved_mlp, 0.0);

    // The human-readable table surfaces the interference section.
    const std::string table = tt::obs::reportTable(report);
    EXPECT_NE(table.find("memory interference"), std::string::npos);
    EXPECT_NE(table.find("stalls/miss"), std::string::npos);
}

TEST(AnalyzerCounters, RunsWithoutCountersOmitTheSection)
{
    const TaskGraph graph = dualGraph(8);
    tt::cpu::SimMachine machine(simConfig(2));
    StaticMtlPolicy policy(1, 2);
    tt::simrt::SimRuntime runtime(machine, graph, policy);
    const auto result = runtime.run();
    tt::obs::AnalyzeOptions options;
    options.cores = 2;
    options.makespan = result.seconds;
    const auto report = tt::obs::analyze(
        tt::exec::toTraceData(graph, result), options);

    EXPECT_FALSE(report.has_counters);
    std::ostringstream os;
    tt::obs::writeReportJson(report, os);
    EXPECT_EQ(os.str().find("\"counters\""), std::string::npos);
    const std::string table = tt::obs::reportTable(report);
    EXPECT_EQ(table.find("memory interference"), std::string::npos);
}

/**
 * Satellite: forward compatibility of ttreport --diff. A baseline
 * written before the counters section existed must diff cleanly
 * against a candidate that has it (and vice versa) -- missing
 * sections are skipped, never an error.
 */
TEST(DiffCounters, MissingCountersSectionIsToleratedEitherWay)
{
    tt::exec::RunResult result;
    const tt::obs::Report with = analyzedSimReport(&result);
    tt::obs::Report without = with;
    without.has_counters = false;
    without.counters = {};
    for (auto &phase : without.phases) {
        phase.counters = {};
        for (auto &attribution : phase.by_mtl)
            attribution.counters = {};
    }

    auto toJson = [](const tt::obs::Report &report) {
        std::ostringstream os;
        tt::obs::writeReportJson(report, os);
        const auto parsed = tt::json::parse(os.str());
        EXPECT_TRUE(parsed.has_value());
        return *parsed;
    };
    const auto old_format = toJson(without);
    const auto new_format = toJson(with);

    // Old baseline vs new candidate, and the downgrade direction.
    EXPECT_FALSE(tt::obs::diffReports(old_format, new_format, 0.05)
                     .regressed());
    EXPECT_FALSE(tt::obs::diffReports(new_format, old_format, 0.05)
                     .regressed());
    // Both sides carrying counters still gate on them: inflate the
    // candidate's stalls-per-miss past the threshold.
    tt::obs::Report worse = with;
    worse.counters.stalls_per_miss *= 1.5;
    const auto worse_json = toJson(worse);
    const auto diff =
        tt::obs::diffReports(new_format, worse_json, 0.05);
    ASSERT_FALSE(diff.regressions.empty());
    EXPECT_NE(diff.regressions.front().metric.find("stalls_per_miss"),
              std::string::npos);
}

TEST(ChromeTraceCounters, EventsAndCounterTrackAreEmitted)
{
    const TaskGraph graph = dualGraph(8);
    SimCounterProvider sim_counters;
    EngineOptions options;
    options.counters = &sim_counters;
    tt::cpu::SimMachine machine(simConfig(2));
    StaticMtlPolicy policy(1, 2);
    tt::simrt::SimRuntime runtime(machine, graph, policy, options);
    const auto result = runtime.run();

    const std::string json = tt::obs::chromeTraceString(
        tt::exec::toTraceData(graph, result));
    EXPECT_NE(json.find("\"llc_misses\""), std::string::npos);
    EXPECT_NE(json.find("\"hw counters\""), std::string::npos);
    std::string error;
    EXPECT_TRUE(tt::json::parse(json, &error).has_value()) << error;
}

} // namespace
