/**
 * @file
 * Tests of the workload builders: calibration accuracy, graph
 * shapes, the paper-ratio tables, and host-mode end-to-end
 * correctness of dft / streamcluster / SIFT against direct kernel
 * evaluation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "runtime/runtime.hh"
#include "simrt/sim_runtime.hh"
#include "workloads/calibration.hh"
#include "workloads/dft.hh"
#include "workloads/kernels/kmedian.hh"
#include "workloads/sift.hh"
#include "workloads/streamcluster.hh"
#include "workloads/synthetic.hh"
#include "workloads/tables.hh"

namespace {

using tt::core::ConventionalPolicy;
using tt::core::StaticMtlPolicy;
using tt::cpu::MachineConfig;

tt::exec::EngineOptions
hostOptions()
{
    tt::exec::EngineOptions opts;
    opts.threads = 2;
    opts.pin_affinity = false;
    return opts;
}

TEST(Calibration, RatioIsHitAtMtl1)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    for (double target : {0.1, 0.5, 1.0, 3.0}) {
        tt::workloads::SyntheticParams params;
        params.tm1_over_tc = target;
        params.footprint_bytes = 256 * 1024;
        params.pairs = 24;
        const auto graph =
            tt::workloads::buildSyntheticSim(cfg, params);
        StaticMtlPolicy policy(1, cfg.contexts());
        const auto run = tt::simrt::runOnce(cfg, graph, policy);
        EXPECT_NEAR(run.avg_tm / run.avg_tc, target, 0.15 * target)
            << "target ratio " << target;
    }
}

TEST(Calibration, MemoisationIsStable)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    const double a =
        tt::workloads::memSecondsPerByte(cfg, 512 * 1024, 1.0);
    const double b =
        tt::workloads::memSecondsPerByte(cfg, 512 * 1024, 1.0);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 0.0);
    // Sanity: effective single-stream bandwidth in the GB/s range.
    const double bw = 1.0 / a;
    EXPECT_GT(bw, 1e9);
    EXPECT_LT(bw, 8.5e9);
}

TEST(Tables, StreamclusterLookup)
{
    EXPECT_DOUBLE_EQ(tt::workloads::tables::streamclusterRatio(128),
                     0.3714);
    EXPECT_DOUBLE_EQ(tt::workloads::tables::streamclusterRatio(20),
                     0.4958);
}

TEST(TablesDeath, UnknownDimensionIsFatal)
{
    EXPECT_DEATH(
        { tt::workloads::tables::streamclusterRatio(77); }, "Table II");
}

TEST(SimWorkloads, DftHas96Pairs)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    const auto graph = tt::workloads::dftSim(cfg);
    EXPECT_EQ(graph.pairCount(), 96);
    EXPECT_EQ(graph.phaseCount(), 1);
}

TEST(SimWorkloads, SiftHasFourteenPhases)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    const auto graph = tt::workloads::siftSim(cfg);
    EXPECT_EQ(graph.phaseCount(), 14);
    EXPECT_EQ(graph.phases().front().name, "COPYUP");
    EXPECT_EQ(graph.phases().back().name, "DOG");
}

TEST(SimWorkloads, StreamclusterRatioMeasuredAtMtl1)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    for (int dim : {128, 32}) {
        const auto graph = tt::workloads::streamclusterSim(cfg, dim);
        StaticMtlPolicy policy(1, cfg.contexts());
        const auto run = tt::simrt::runOnce(cfg, graph, policy);
        const double expect =
            tt::workloads::tables::streamclusterRatio(dim);
        EXPECT_NEAR(run.avg_tm / run.avg_tc, expect, 0.15 * expect)
            << "dim " << dim;
    }
}

TEST(HostWorkloads, DftMatchesNaiveDft)
{
    auto host = tt::workloads::buildDftHost(8, 2, 64);
    ConventionalPolicy policy(2);
    tt::runtime::Runtime runtime(host.graph, policy, hostOptions());
    runtime.run();

    // Spot-check rows against the O(n^2) reference.
    for (std::size_t row : {std::size_t{0}, std::size_t{7},
                            std::size_t{15}}) {
        std::vector<tt::workloads::Complex> input(
            host.input->begin() +
                static_cast<std::ptrdiff_t>(row * host.cols),
            host.input->begin() +
                static_cast<std::ptrdiff_t>((row + 1) * host.cols));
        const auto expected = tt::workloads::naiveDft(input);
        std::vector<tt::workloads::Complex> actual(
            host.output->begin() +
                static_cast<std::ptrdiff_t>(row * host.cols),
            host.output->begin() +
                static_cast<std::ptrdiff_t>((row + 1) * host.cols));
        EXPECT_LT(tt::workloads::maxAbsError(actual, expected), 0.05f)
            << "row " << row;
    }
}

TEST(HostWorkloads, StreamclusterAssignsEveryPointToNearest)
{
    auto host = tt::workloads::buildStreamclusterHost(16, 8, 32, 4);
    ConventionalPolicy policy(2);
    tt::runtime::Runtime runtime(host.graph, policy, hostOptions());
    runtime.run();

    // Every point's recorded assignment must be the true nearest
    // center, and the total cost must match direct evaluation.
    double expected_cost = 0.0;
    const std::size_t total = static_cast<std::size_t>(host.pairs) *
                              host.points_per_block;
    for (std::size_t p = 0; p < total; ++p) {
        float cost = 0.0f;
        const std::size_t best = tt::workloads::nearestCenter(
            host.points->data() + p * host.dim, host.centers->data(),
            host.centers_k, host.dim, cost);
        EXPECT_EQ((*host.assignment)[p], best) << "point " << p;
        expected_cost += cost;
    }
    EXPECT_NEAR(host.totalCost(), expected_cost,
                1e-6 * std::abs(expected_cost) + 1e-6);
}

TEST(HostWorkloads, SiftPipelineMatchesDirectEvaluation)
{
    auto host = tt::workloads::buildSiftHost(64, 64);
    ConventionalPolicy policy(2);
    tt::runtime::Runtime runtime(host.graph, policy, hostOptions());
    runtime.run();

    // Recompute the pipeline with the plain kernels and compare the
    // streamed results stage by stage.
    using tt::workloads::convolveSeparable;
    using tt::workloads::differenceOfGaussians;
    using tt::workloads::downsample2x;
    using tt::workloads::Image;
    using tt::workloads::upsample2x;

    auto expectClose = [](const Image &got, const Image &want,
                          const char *what) {
        ASSERT_EQ(got.width, want.width) << what;
        ASSERT_EQ(got.height, want.height) << what;
        float worst = 0.0f;
        for (std::size_t i = 0; i < got.pixels.size(); ++i)
            worst = std::max(worst,
                             std::abs(got.pixels[i] - want.pixels[i]));
        EXPECT_LT(worst, 1e-4f) << what;
    };

    const Image up = upsample2x(*host.base);
    expectClose(*host.up, up, "COPYUP");

    const Image g1 = convolveSeparable(up, host.taps);
    expectClose(*host.g1, g1, "ECONVOLVE");

    const Image g2 = convolveSeparable(downsample2x(g1), host.taps);
    expectClose(*host.g2, g2, "ECONVOLVE2");

    Image o3 = convolveSeparable(downsample2x(g2), host.taps);
    expectClose(*host.o3[0], o3, "ECONVOLVE3-0");
    for (int i = 1; i < 5; ++i) {
        o3 = convolveSeparable(o3, host.taps);
        expectClose(*host.o3[static_cast<std::size_t>(i)], o3,
                    "ECONVOLVE3-i");
    }

    Image o4 = convolveSeparable(downsample2x(o3), host.taps);
    expectClose(*host.o4[0], o4, "ECONVOLVE4-0");
    for (int i = 1; i < 5; ++i) {
        o4 = convolveSeparable(o4, host.taps);
        expectClose(*host.o4[static_cast<std::size_t>(i)], o4,
                    "ECONVOLVE4-i");
    }

    const Image dog = differenceOfGaussians(up, g1);
    expectClose(*host.dog, dog, "DOG");
}

TEST(HostWorkloads, SyntheticHostComputesTheKernel)
{
    tt::workloads::SyntheticParams params;
    params.footprint_bytes = 4096;
    params.pairs = 4;
    auto host = tt::workloads::buildSyntheticHost(params, 3);
    ConventionalPolicy policy(2);
    tt::runtime::Runtime runtime(host.graph, policy, hostOptions());
    runtime.run();
    // A[i] = 7 then += 0, += 1, += 2  ->  10 everywhere.
    for (std::uint64_t value : *host.storage)
        EXPECT_EQ(value, 10u);
}

TEST(SimWorkloads, SiftSimPhasesAreBarrierOrdered)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    const auto graph = tt::workloads::siftSim(cfg);
    ConventionalPolicy policy(cfg.contexts());
    const auto run = tt::simrt::runOnce(cfg, graph, policy);
    ASSERT_EQ(run.phases.size(), 14u);
    for (std::size_t i = 1; i < run.phases.size(); ++i)
        EXPECT_GE(run.phases[i].start, run.phases[i - 1].end);
}

} // namespace
