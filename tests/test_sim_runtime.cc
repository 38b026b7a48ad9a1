/**
 * @file
 * Tests of the simulated-time scheduler: MTL enforcement, phase
 * barriers, dependency honouring, agreement with the analytical
 * model in both regimes, and the offline-exhaustive harness.
 */

#include <gtest/gtest.h>

#include "core/analytical_model.hh"
#include "core/dynamic_policy.hh"
#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "simrt/sim_runtime.hh"
#include "stream/builder.hh"
#include "workloads/calibration.hh"
#include "workloads/synthetic.hh"

namespace {

using tt::core::AnalyticalModel;
using tt::core::ConventionalPolicy;
using tt::core::StaticMtlPolicy;
using tt::cpu::MachineConfig;
using tt::exec::RunResult;
using tt::stream::PairSpec;
using tt::stream::StreamProgramBuilder;
using tt::stream::TaskGraph;

TaskGraph
uniformGraph(int pairs, std::uint64_t bytes, std::uint64_t cycles)
{
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(pairs, [&](int) {
        PairSpec spec;
        spec.bytes = bytes;
        spec.compute_cycles = cycles;
        return spec;
    });
    return std::move(builder).build();
}

TEST(SimRuntime, RunsEveryTaskExactlyOnce)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    const auto graph = uniformGraph(16, 64 * 1024, 100000);
    ConventionalPolicy policy(cfg.contexts());
    const RunResult result = tt::simrt::runOnce(cfg, graph, policy);
    EXPECT_EQ(result.samples.size(), 16u);
    EXPECT_GT(result.seconds, 0.0);
}

TEST(SimRuntime, EmptyGraphCompletesImmediately)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    StreamProgramBuilder builder;
    const TaskGraph graph = std::move(builder).build();
    ConventionalPolicy policy(cfg.contexts());
    const RunResult result = tt::simrt::runOnce(cfg, graph, policy);
    EXPECT_EQ(result.seconds, 0.0);
    EXPECT_TRUE(result.samples.empty());
}

/** MTL must cap concurrent memory tasks for every static setting. */
class MtlEnforcement : public ::testing::TestWithParam<int>
{
};

TEST_P(MtlEnforcement, PeakInFlightNeverExceedsMtl)
{
    const int mtl = GetParam();
    const auto cfg = MachineConfig::i7_860_1dimm();
    const auto graph = uniformGraph(32, 128 * 1024, 50000);
    StaticMtlPolicy policy(mtl, cfg.contexts());
    const RunResult result = tt::simrt::runOnce(cfg, graph, policy);
    EXPECT_LE(result.peak_mem_in_flight, mtl);
    // And with enough work the cap is actually reached.
    EXPECT_EQ(result.peak_mem_in_flight, mtl);
}

INSTANTIATE_TEST_SUITE_P(AllMtls, MtlEnforcement,
                         ::testing::Values(1, 2, 3, 4));

TEST(SimRuntime, SamplesCarryTheMtlInForce)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    const auto graph = uniformGraph(12, 128 * 1024, 50000);
    StaticMtlPolicy policy(2, cfg.contexts());
    const RunResult result = tt::simrt::runOnce(cfg, graph, policy);
    for (const auto &sample : result.samples) {
        EXPECT_EQ(sample.mtl, 2);
        EXPECT_GT(sample.tm, 0.0);
        EXPECT_GT(sample.tc, 0.0);
        EXPECT_LE(sample.end_time, result.seconds + 1e-12);
    }
}

TEST(SimRuntime, TmGrowsWithMtl)
{
    // The paper's premise observed end-to-end: average memory-task
    // time is non-decreasing in the MTL.
    const auto cfg = MachineConfig::i7_860_1dimm();
    const auto graph = uniformGraph(32, 512 * 1024, 500000);
    double prev = 0.0;
    for (int k = 1; k <= cfg.contexts(); ++k) {
        StaticMtlPolicy policy(k, cfg.contexts());
        const RunResult result = tt::simrt::runOnce(cfg, graph, policy);
        EXPECT_GE(result.avg_tm, prev * 0.98) << "k=" << k;
        prev = result.avg_tm;
    }
}

TEST(SimRuntime, AllBusyRegimeMatchesModelExecTime)
{
    // Compute-heavy workload at MTL=1: the model says time =
    // (T_m1 + T_c) * t / n in steady state.
    const auto cfg = MachineConfig::i7_860_1dimm();
    const int pairs = 64;
    tt::workloads::SyntheticParams params;
    params.tm1_over_tc = 0.15;
    params.footprint_bytes = 256 * 1024;
    params.pairs = pairs;
    const auto graph = tt::workloads::buildSyntheticSim(cfg, params);
    StaticMtlPolicy policy(1, cfg.contexts());
    const RunResult result = tt::simrt::runOnce(cfg, graph, policy);
    const double predicted = AnalyticalModel::execTime(
        result.avg_tm, result.avg_tc, pairs, 1, cfg.contexts());
    EXPECT_NEAR(result.seconds / predicted, 1.0, 0.10);
}

TEST(SimRuntime, IdleRegimeMatchesModelExecTime)
{
    // Memory-heavy workload at MTL=1: time = T_m1 * t / 1.
    const auto cfg = MachineConfig::i7_860_1dimm();
    const int pairs = 48;
    tt::workloads::SyntheticParams params;
    params.tm1_over_tc = 3.0;
    params.footprint_bytes = 256 * 1024;
    params.pairs = pairs;
    const auto graph = tt::workloads::buildSyntheticSim(cfg, params);
    StaticMtlPolicy policy(1, cfg.contexts());
    const RunResult result = tt::simrt::runOnce(cfg, graph, policy);
    const double predicted = AnalyticalModel::execTime(
        result.avg_tm, result.avg_tc, pairs, 1, cfg.contexts());
    EXPECT_NEAR(result.seconds / predicted, 1.0, 0.10);
}

TEST(SimRuntime, PhasesRunInOrderWithBarriers)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    StreamProgramBuilder builder;
    for (int phase = 0; phase < 3; ++phase) {
        builder.beginPhase("phase" + std::to_string(phase));
        builder.addPairs(8, [&](int) {
            PairSpec spec;
            spec.bytes = 64 * 1024;
            spec.compute_cycles = 30000;
            return spec;
        });
    }
    const TaskGraph graph = std::move(builder).build();
    ConventionalPolicy policy(cfg.contexts());
    const RunResult result = tt::simrt::runOnce(cfg, graph, policy);

    ASSERT_EQ(result.phases.size(), 3u);
    for (std::size_t i = 1; i < result.phases.size(); ++i) {
        // Barrier: a phase starts only after the previous one ends.
        EXPECT_GE(result.phases[i].start, result.phases[i - 1].end);
    }
}

TEST(SimRuntime, CrossPairDependenciesHonoured)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    StreamProgramBuilder builder;
    builder.beginPhase("chain");
    PairSpec spec;
    spec.bytes = 64 * 1024;
    spec.compute_cycles = 30000;
    const auto a = builder.addPair(spec);
    const auto b = builder.addPair(spec);
    builder.dependPairs(a, b); // b's memory waits on a's compute
    const TaskGraph graph = std::move(builder).build();
    ConventionalPolicy policy(cfg.contexts());
    const RunResult result = tt::simrt::runOnce(cfg, graph, policy);
    ASSERT_EQ(result.samples.size(), 2u);
    // Completion order must be a then b.
    EXPECT_LT(result.samples[0].end_time, result.samples[1].end_time);
    // Serial chain: total >= sum of both pairs' task times.
    EXPECT_GE(result.seconds + 1e-12,
              result.samples[0].tm + result.samples[0].tc +
                  result.samples[1].tm + result.samples[1].tc);
}

TEST(SimRuntime, DeterministicAcrossRuns)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    const auto graph = uniformGraph(24, 256 * 1024, 200000);
    tt::core::DynamicThrottlePolicy p1(cfg.contexts(), 4);
    tt::core::DynamicThrottlePolicy p2(cfg.contexts(), 4);
    const RunResult a = tt::simrt::runOnce(cfg, graph, p1);
    const RunResult b = tt::simrt::runOnce(cfg, graph, p2);
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.samples[i].tm, b.samples[i].tm);
        EXPECT_DOUBLE_EQ(a.samples[i].end_time, b.samples[i].end_time);
    }
}

TEST(SimRuntime, OfflineExhaustiveFindsComputeBoundOptimum)
{
    // Ratio 0.15 -> all cores busy at MTL=1, so offline search must
    // pick MTL=1 (contention-free memory tasks, no idle cost).
    const auto cfg = MachineConfig::i7_860_1dimm();
    tt::workloads::SyntheticParams params;
    params.tm1_over_tc = 0.15;
    params.footprint_bytes = 256 * 1024;
    params.pairs = 48;
    const auto graph = tt::workloads::buildSyntheticSim(cfg, params);
    const auto search = tt::simrt::offlineExhaustiveSearch(cfg, graph);
    // MTL 1 and 2 are near-tied at this ratio (both keep every core
    // busy and k=2 barely contends); conventional MTL=4 must lose.
    EXPECT_LE(search.best_mtl, 2);
    ASSERT_EQ(search.seconds_per_mtl.size(), 4u);
    EXPECT_LT(search.best_seconds, search.seconds_per_mtl.back());
    EXPECT_LT(search.seconds_per_mtl[0], search.seconds_per_mtl[3]);
}

TEST(SimRuntime, LlcFootprintReleasedByRunEnd)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    const auto graph = uniformGraph(16, 512 * 1024, 100000);
    ConventionalPolicy policy(cfg.contexts());
    tt::cpu::SimMachine machine(cfg);
    tt::simrt::SimRuntime runtime(machine, graph, policy);
    const RunResult result = runtime.run();
    EXPECT_GT(result.peak_llc_occupancy,
              cfg.mem.llc_resident_bytes);
    EXPECT_EQ(machine.mem().llc().liveFootprint(), 0u);
}

TEST(SimRuntime, MonitorOverheadIsBounded)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    tt::workloads::SyntheticParams params;
    params.tm1_over_tc = 0.5;
    params.footprint_bytes = 256 * 1024;
    params.pairs = 256;
    const auto graph = tt::workloads::buildSyntheticSim(cfg, params);
    tt::core::DynamicThrottlePolicy policy(cfg.contexts(), 8);
    const RunResult result = tt::simrt::runOnce(cfg, graph, policy);
    // Stationary workload: one selection; probes are a small slice.
    EXPECT_GT(result.monitor_overhead, 0.0);
    EXPECT_LT(result.monitor_overhead, 0.25);
    EXPECT_EQ(result.policy_stats.selections, 1);
}

} // namespace
