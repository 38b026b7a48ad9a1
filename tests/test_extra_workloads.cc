/**
 * @file
 * Tests of the extra workloads (stencil, histogram): host-mode
 * numerical correctness against direct evaluation, sim-mode graph
 * shapes, and their scheduling behaviour under throttling.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/dynamic_policy.hh"
#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "runtime/runtime.hh"
#include "simrt/sim_runtime.hh"
#include "workloads/histogram.hh"
#include "workloads/stencil.hh"

namespace {

using tt::cpu::MachineConfig;

tt::exec::EngineOptions
hostOptions(int threads = 2)
{
    tt::exec::EngineOptions opts;
    opts.threads = threads;
    opts.pin_affinity = false;
    return opts;
}

TEST(Stencil, HostMatchesReferenceJacobi)
{
    tt::workloads::StencilParams params;
    params.width = 64;
    params.height = 64;
    params.sweeps = 3;
    params.blocks = 8;
    auto host = tt::workloads::buildStencilHost(params);
    const tt::workloads::Image initial = *host.front;

    tt::core::ConventionalPolicy policy(2);
    tt::runtime::Runtime runtime(host.graph, policy, hostOptions());
    runtime.run();

    const auto expected =
        tt::workloads::jacobiReference(initial, params.sweeps);
    const auto &got = *host.result();
    ASSERT_EQ(got.pixels.size(), expected.pixels.size());
    float worst = 0.0f;
    for (std::size_t i = 0; i < got.pixels.size(); ++i)
        worst = std::max(worst,
                         std::abs(got.pixels[i] - expected.pixels[i]));
    EXPECT_LT(worst, 1e-5f);
}

TEST(Stencil, ReferenceSmoothsTowardsMean)
{
    const auto img = tt::workloads::makeTestImage(32, 32);
    const auto out = tt::workloads::jacobiReference(img, 10);
    auto range = [](const tt::workloads::Image &image) {
        float lo = image.pixels[0];
        float hi = image.pixels[0];
        for (float p : image.pixels) {
            lo = std::min(lo, p);
            hi = std::max(hi, p);
        }
        return hi - lo;
    };
    EXPECT_LT(range(out), range(img));
}

TEST(Stencil, SimGraphHasOnePhasePerSweep)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    tt::workloads::StencilParams params;
    params.sweeps = 5;
    params.blocks = 16;
    const auto graph = tt::workloads::stencilSim(cfg, params);
    EXPECT_EQ(graph.phaseCount(), 5);
    EXPECT_EQ(graph.pairCount(), 5 * 16);

    tt::core::StaticMtlPolicy policy(2, cfg.contexts());
    const auto run = tt::simrt::runOnce(cfg, graph, policy);
    EXPECT_EQ(run.samples.size(), static_cast<std::size_t>(5 * 16));
    EXPECT_EQ(tt::exec::validateSchedule(graph, run, cfg.contexts()),
              "");
}

TEST(Stencil, ThrottlingHelpsThisMemoryHeavyKernel)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    tt::workloads::StencilParams params;
    params.width = 1024;
    params.height = 256;
    params.sweeps = 2;
    params.blocks = 64;
    const auto graph = tt::workloads::stencilSim(cfg, params);
    const auto offline = tt::simrt::offlineExhaustiveSearch(cfg, graph);
    // Memory-heavy: the unthrottled schedule must not be optimal.
    EXPECT_LT(offline.best_mtl, cfg.contexts());
    EXPECT_LT(offline.best_seconds,
              offline.seconds_per_mtl.back() * 0.995);
}

TEST(Histogram, HostCountsEveryKeyExactlyOnce)
{
    tt::workloads::HistogramParams params;
    params.pairs = 8;
    params.keys_per_block = 4096;
    auto host = tt::workloads::buildHistogramHost(params);

    tt::core::StaticMtlPolicy policy(1, 2);
    tt::runtime::Runtime runtime(host.graph, policy, hostOptions());
    runtime.run();

    const auto totals = host.totals();
    std::uint64_t sum = 0;
    for (std::uint64_t bin : totals)
        sum += bin;
    EXPECT_EQ(sum, static_cast<std::uint64_t>(params.pairs) *
                       params.keys_per_block);

    // Cross-check against direct binning of the source keys.
    std::array<std::uint64_t, tt::workloads::kHistogramBins> direct{};
    for (std::uint32_t key : *host.keys)
        ++direct[key >> 24];
    for (std::size_t bin = 0; bin < direct.size(); ++bin)
        EXPECT_EQ(totals[bin], direct[bin]) << "bin " << bin;
}

TEST(Histogram, KeysAreRoughlyUniform)
{
    tt::workloads::HistogramParams params;
    params.pairs = 16;
    params.keys_per_block = 8192;
    auto host = tt::workloads::buildHistogramHost(params);
    tt::core::ConventionalPolicy policy(2);
    tt::runtime::Runtime runtime(host.graph, policy, hostOptions());
    runtime.run();
    const auto totals = host.totals();
    const double expected =
        static_cast<double>(params.pairs) * params.keys_per_block /
        tt::workloads::kHistogramBins;
    for (std::uint64_t bin : totals)
        EXPECT_NEAR(static_cast<double>(bin), expected, expected * 0.25);
}

TEST(Histogram, SimIsDeeplyMemoryBound)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    tt::workloads::HistogramParams params;
    params.pairs = 64;
    const auto graph = tt::workloads::histogramSim(cfg, params);
    tt::core::StaticMtlPolicy policy(1, cfg.contexts());
    const auto run = tt::simrt::runOnce(cfg, graph, policy);
    // ~2 cycles per 4-byte key is below the memory cost: the ratio
    // lands past the quad-core region-3 boundary of MTL=1 (1/3) and
    // even past MTL=2's boundary (1.0).
    EXPECT_GT(run.avg_tm / run.avg_tc, 1.0);
}

TEST(Histogram, DynamicPolicyHandlesTheBoundaryCase)
{
    // Deep memory-bound workloads sit in the regime where the model
    // says "some cores idle at every MTL < n"; the mechanism must
    // stay near the top MTL rather than strangling throughput.
    const auto cfg = MachineConfig::i7_860_1dimm();
    tt::workloads::HistogramParams params;
    params.pairs = 128;
    const auto graph = tt::workloads::histogramSim(cfg, params);

    tt::core::ConventionalPolicy conventional(cfg.contexts());
    const double base =
        tt::simrt::runOnce(cfg, graph, conventional).seconds;
    tt::core::DynamicThrottlePolicy dynamic(cfg.contexts(), 8);
    const auto run = tt::simrt::runOnce(cfg, graph, dynamic);
    // Within a few percent of conventional (probing cost only).
    EXPECT_LT(run.seconds, base * 1.08);
    ASSERT_FALSE(dynamic.selections().empty());
    EXPECT_GE(dynamic.selections().back().d_mtl, 2);
}

} // namespace
