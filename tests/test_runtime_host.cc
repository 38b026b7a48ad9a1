/**
 * @file
 * Tests of the real-thread runtime: completion, ordering, the
 * lock+counter MTL gate under concurrency, phase barriers, sample
 * reporting and policy integration.
 *
 * These tests assert scheduling *correctness*; performance claims
 * are evaluated on the simulator (this host may have any number of
 * CPUs).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/dynamic_policy.hh"
#include "core/policy.hh"
#include "runtime/runtime.hh"
#include "stream/builder.hh"
#include "util/stats.hh"

namespace {

using tt::core::ConventionalPolicy;
using tt::core::PairSample;
using tt::core::SchedulingPolicy;
using tt::core::StaticMtlPolicy;
using tt::runtime::Runtime;
using tt::exec::EngineOptions;
using tt::stream::PairSpec;
using tt::stream::StreamProgramBuilder;
using tt::stream::TaskGraph;

EngineOptions
options(int threads)
{
    EngineOptions opts;
    opts.threads = threads;
    opts.pin_affinity = false; // not meaningful under test runners
    return opts;
}

TEST(HostRuntime, RunsEveryTaskExactlyOnce)
{
    std::atomic<int> mem_runs{0};
    std::atomic<int> cmp_runs{0};
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(32, [&](int) {
        PairSpec spec;
        spec.host_memory = [&] { ++mem_runs; };
        spec.host_compute = [&] { ++cmp_runs; };
        spec.bytes = 64;
        spec.compute_cycles = 1;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();

    ConventionalPolicy policy(4);
    Runtime runtime(graph, policy, options(4));
    const auto result = runtime.run();
    EXPECT_EQ(mem_runs.load(), 32);
    EXPECT_EQ(cmp_runs.load(), 32);
    EXPECT_EQ(result.samples.size(), 32u);
}

TEST(HostRuntime, ComputeSeesItsPairsGatheredData)
{
    // The dependency contract: each compute task observes exactly
    // what its memory task wrote.
    const int pairs = 16;
    std::vector<int> cells(static_cast<std::size_t>(pairs), 0);
    std::atomic<int> violations{0};
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(pairs, [&](int i) {
        PairSpec spec;
        spec.host_memory = [&cells, i] {
            cells[static_cast<std::size_t>(i)] = i + 1;
        };
        spec.host_compute = [&cells, &violations, i] {
            if (cells[static_cast<std::size_t>(i)] != i + 1)
                ++violations;
        };
        spec.bytes = 64;
        spec.compute_cycles = 1;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    ConventionalPolicy policy(3);
    Runtime runtime(graph, policy, options(3));
    runtime.run();
    EXPECT_EQ(violations.load(), 0);
}

/** The lock+counter gate: concurrent memory tasks never exceed MTL. */
class HostMtlGate : public ::testing::TestWithParam<int>
{
};

TEST_P(HostMtlGate, NeverExceedsLimit)
{
    const int mtl = GetParam();
    std::atomic<int> live{0};
    std::atomic<int> peak{0};
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(48, [&](int) {
        PairSpec spec;
        spec.host_memory = [&] {
            const int now = ++live;
            int expect = peak.load();
            while (now > expect &&
                   !peak.compare_exchange_weak(expect, now)) {
            }
            // A little real work so tasks overlap.
            volatile double acc = 0.0;
            for (int i = 0; i < 5000; ++i)
                acc = acc + static_cast<double>(i);
            --live;
        };
        spec.host_compute = [] {
            volatile double acc = 0.0;
            for (int i = 0; i < 2000; ++i)
                acc = acc + static_cast<double>(i);
        };
        spec.bytes = 64;
        spec.compute_cycles = 1;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();

    StaticMtlPolicy policy(mtl, 4);
    Runtime runtime(graph, policy, options(4));
    const auto result = runtime.run();
    EXPECT_LE(peak.load(), mtl);
    EXPECT_LE(result.peak_mem_in_flight, mtl);
}

INSTANTIATE_TEST_SUITE_P(Limits, HostMtlGate,
                         ::testing::Values(1, 2, 3, 4));

TEST(HostRuntime, PhaseBarrierOrdersPhases)
{
    std::atomic<int> phase0_done{0};
    std::atomic<int> barrier_violations{0};
    StreamProgramBuilder builder;
    builder.beginPhase("first");
    builder.addPairs(8, [&](int) {
        PairSpec spec;
        spec.host_memory = [] {};
        spec.host_compute = [&] { ++phase0_done; };
        spec.bytes = 64;
        spec.compute_cycles = 1;
        return spec;
    });
    builder.beginPhase("second");
    builder.addPairs(8, [&](int) {
        PairSpec spec;
        spec.host_memory = [&] {
            if (phase0_done.load() != 8)
                ++barrier_violations;
        };
        spec.host_compute = [] {};
        spec.bytes = 64;
        spec.compute_cycles = 1;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    ConventionalPolicy policy(4);
    Runtime runtime(graph, policy, options(4));
    runtime.run();
    EXPECT_EQ(barrier_violations.load(), 0);
}

/**
 * Forwards to `inner` and fails the test if onPairMeasured() or
 * currentMtl() is entered while another such call is still inside:
 * policies are not thread-safe, so whichever thread drains a handed-
 * off pair must hold the scheduler mutex.
 */
class SerialCheckPolicy final : public SchedulingPolicy
{
  public:
    explicit SerialCheckPolicy(SchedulingPolicy &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }

    int
    currentMtl() const override
    {
        const Inside inside(inside_);
        return inner_.currentMtl();
    }

    void
    onPairMeasured(const PairSample &sample) override
    {
        const Inside inside(inside_);
        ++pair_calls_;
        inner_.onPairMeasured(sample);
    }

    tt::core::PolicyStats stats() const override { return inner_.stats(); }

    long pairCalls() const { return pair_calls_; }

  private:
    struct Inside
    {
        explicit Inside(std::atomic<int> &count) : count_(count)
        {
            if (count_.fetch_add(1) != 0)
                ADD_FAILURE() << "policy entered concurrently";
        }
        ~Inside() { count_.fetch_sub(1); }
        std::atomic<int> &count_;
    };

    SchedulingPolicy &inner_;
    mutable std::atomic<int> inside_{0};
    long pair_calls_ = 0; ///< guarded by the wrapper's own check
};

TEST(HostRuntime, PhaseBarriersHoldOverManyPhases)
{
    // Eight phases of 256 trivial pairs on four workers, twenty runs
    // over: the barrier counts compute completions only, as their
    // pairs are drained under the scheduler mutex, so every run must
    // still keep each phase after the previous one, deliver one
    // sample per pair and never enter the policy concurrently.
    constexpr int kPhases = 8;
    constexpr int kPairsPerPhase = 256;
    StreamProgramBuilder builder;
    for (int p = 0; p < kPhases; ++p) {
        builder.beginPhase("phase" + std::to_string(p));
        builder.addPairs(kPairsPerPhase, [](int) {
            PairSpec spec;
            spec.bytes = 64;
            spec.compute_cycles = 1;
            return spec;
        });
    }
    const TaskGraph graph = std::move(builder).build();
    for (int run = 0; run < 20; ++run) {
        ConventionalPolicy inner(4);
        SerialCheckPolicy policy(inner);
        Runtime runtime(graph, policy, options(4));
        const auto result = runtime.run();
        ASSERT_FALSE(result.failed) << result.failure_reason;
        ASSERT_EQ(tt::exec::validateSchedule(graph, result, 4), "")
            << "run " << run;
        ASSERT_EQ(result.samples.size(),
                  static_cast<std::size_t>(graph.pairCount()))
            << "run " << run;
        ASSERT_EQ(policy.pairCalls(),
                  static_cast<long>(result.samples.size()))
            << "run " << run;
    }
}

/**
 * A worker whose memory task releases its own pair's compute task
 * keeps that task and runs it next: on four workers no compute task
 * of a plain pair graph passes through the compute ring, each runs
 * on the worker that ran its memory task, and every schedule stays
 * valid.
 */
TEST(HostRuntime, ComputePartnerSkipsTheComputeRing)
{
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(1000, [](int) {
        PairSpec spec;
        spec.bytes = 64;
        spec.compute_cycles = 1;
        spec.host_memory = [] {};
        spec.host_compute = [] {};
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    for (int run = 0; run < 5; ++run) {
        tt::MetricsRegistry metrics;
        ConventionalPolicy policy(4);
        EngineOptions opts = options(4);
        opts.metrics = &metrics;
        Runtime runtime(graph, policy, opts);
        const auto result = runtime.run();
        ASSERT_FALSE(result.failed) << result.failure_reason;
        EXPECT_EQ(metrics.gauge("runtime.ring_peak_compute", -1.0), 0.0)
            << "run " << run;
        std::vector<int> memory_worker(
            static_cast<std::size_t>(graph.pairCount()), -1);
        for (const auto &event : result.trace)
            if (event.is_memory)
                memory_worker[static_cast<std::size_t>(event.pair)] =
                    event.worker;
        for (const auto &event : result.trace) {
            if (!event.is_memory) {
                ASSERT_EQ(event.worker,
                          memory_worker[static_cast<std::size_t>(
                              event.pair)])
                    << "run " << run << ", pair " << event.pair;
            }
        }
        ASSERT_EQ(tt::exec::validateSchedule(graph, result, 4), "")
            << "run " << run;
    }
}

/**
 * A compute task that another pair's memory completion releases goes
 * through the compute ring. One worker makes the order exact: memory
 * 1 finishes last for compute 0 (raw edge) and first for its own
 * partner, which it keeps, so compute 1 runs before compute 0.
 */
TEST(HostRuntime, ComputeReleasedByAnotherPairUsesTheRing)
{
    // Bodies log "m<pair>" / "c<pair>"; one worker runs them in turn.
    std::vector<std::string> order;
    TaskGraph graph;
    graph.beginPhase("p");
    for (int p = 0; p < 2; ++p) {
        tt::stream::Task memory;
        memory.kind = tt::stream::TaskKind::Memory;
        memory.host_work = [&order, p] {
            order.push_back("m" + std::to_string(p));
        };
        tt::stream::Task compute;
        compute.kind = tt::stream::TaskKind::Compute;
        compute.host_work = [&order, p] {
            order.push_back("c" + std::to_string(p));
        };
        graph.addPair(std::move(memory), std::move(compute));
    }
    graph.addDependency(graph.memoryTaskOf(1), graph.computeTaskOf(0));
    graph.validate();

    tt::MetricsRegistry metrics;
    ConventionalPolicy policy(1);
    EngineOptions opts = options(1);
    opts.metrics = &metrics;
    Runtime runtime(graph, policy, opts);
    const auto result = runtime.run();
    ASSERT_FALSE(result.failed) << result.failure_reason;
    EXPECT_EQ(metrics.gauge("runtime.ring_peak_compute"), 1.0);
    ASSERT_EQ(tt::exec::validateSchedule(graph, result, 1), "");
    EXPECT_EQ(order,
              (std::vector<std::string>{"m0", "m1", "c1", "c0"}));
}

TEST(HostRuntime, SingleThreadStillCompletes)
{
    std::atomic<int> runs{0};
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(8, [&](int) {
        PairSpec spec;
        spec.host_memory = [&] { ++runs; };
        spec.host_compute = [&] { ++runs; };
        spec.bytes = 64;
        spec.compute_cycles = 1;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    StaticMtlPolicy policy(1, 1);
    Runtime runtime(graph, policy, options(1));
    const auto result = runtime.run();
    EXPECT_EQ(runs.load(), 16);
    EXPECT_LE(result.peak_mem_in_flight, 1);
}

TEST(HostRuntime, EmptyGraphReturnsImmediately)
{
    StreamProgramBuilder builder;
    const TaskGraph graph = std::move(builder).build();
    ConventionalPolicy policy(2);
    Runtime runtime(graph, policy, options(2));
    const auto result = runtime.run();
    EXPECT_TRUE(result.samples.empty());
}

TEST(HostRuntime, TasksWithoutClosuresAreLegal)
{
    // Sim-only graphs (no host closures) must still run: the tasks
    // just take ~zero time.
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(4, [&](int) {
        PairSpec spec;
        spec.bytes = 64;
        spec.compute_cycles = 1;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    ConventionalPolicy policy(2);
    Runtime runtime(graph, policy, options(2));
    const auto result = runtime.run();
    EXPECT_EQ(result.samples.size(), 4u);
}

TEST(HostRuntime, SamplesTagMtlAndTimes)
{
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(8, [&](int) {
        PairSpec spec;
        spec.host_memory = [] {
            volatile int x = 0;
            for (int i = 0; i < 1000; ++i)
                x = x + i;
        };
        spec.host_compute = [] {};
        spec.bytes = 64;
        spec.compute_cycles = 1;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    StaticMtlPolicy policy(2, 2);
    Runtime runtime(graph, policy, options(2));
    const auto result = runtime.run();
    for (const auto &sample : result.samples) {
        EXPECT_EQ(sample.mtl, 2);
        EXPECT_GE(sample.tm, 0.0);
        EXPECT_GE(sample.end_time, 0.0);
    }
    EXPECT_EQ(result.policy_stats.pairs_observed, 8);
}

TEST(HostRuntime, DynamicPolicyRunsToCompletion)
{
    // Integration: the adaptive policy driving real threads.
    tt::core::DynamicThrottlePolicy policy(2, 4);
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(64, [&](int) {
        PairSpec spec;
        spec.host_memory = [] {
            volatile double acc = 0.0;
            for (int i = 0; i < 3000; ++i)
                acc = acc + static_cast<double>(i);
        };
        spec.host_compute = [] {
            volatile double acc = 0.0;
            for (int i = 0; i < 9000; ++i)
                acc = acc + static_cast<double>(i);
        };
        spec.bytes = 64;
        spec.compute_cycles = 1;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    Runtime runtime(graph, policy, options(2));
    const auto result = runtime.run();
    EXPECT_EQ(result.samples.size(), 64u);
    EXPECT_GE(result.policy_stats.selections, 1);
    const int final_mtl = result.mtl_trace.back().second;
    EXPECT_GE(final_mtl, 1);
    EXPECT_LE(final_mtl, 2);
}

TEST(HostRuntimeDeath, RunIsSingleShot)
{
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(1, [&](int) {
        PairSpec spec;
        spec.bytes = 64;
        spec.compute_cycles = 1;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    ConventionalPolicy policy(1);
    Runtime runtime(graph, policy, options(1));
    runtime.run();
    EXPECT_DEATH(runtime.run(), "single-shot");
}

} // namespace
