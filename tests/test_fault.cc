/**
 * @file
 * Fault-injection and fault-tolerance tests: determinism of the
 * seeded FaultPlan, host-runtime retries/clean failure/watchdog,
 * policy degradation to the safe static MTL and recovery, sim-side
 * chaos determinism, a seeded multi-run chaos soak, and a 4-worker
 * host stress of the retry hand-off (run this file under the
 * tsan/asan presets via `ctest -L fault`).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/dynamic_policy.hh"
#include "core/online_exhaustive_policy.hh"
#include "core/policy.hh"
#include "core/sample_guard.hh"
#include "cpu/machine_config.hh"
#include "cpu/sim_machine.hh"
#include "exec/engine.hh"
#include "fault/fault_plan.hh"
#include "obs/span.hh"
#include "runtime/runtime.hh"
#include "simrt/sim_runtime.hh"
#include "stream/builder.hh"
#include "workloads/synthetic.hh"

namespace {

using tt::core::ConventionalPolicy;
using tt::core::DynamicThrottlePolicy;
using tt::core::OnlineExhaustivePolicy;
using tt::core::PairSample;
using tt::core::SampleGuard;
using tt::core::SchedulingPolicy;
using tt::core::StaticMtlPolicy;
using tt::fault::FaultConfig;
using tt::fault::FaultPlan;
using tt::obs::JobSpan;
using tt::obs::SpanOutcome;
using tt::runtime::Runtime;
using tt::exec::EngineOptions;
using tt::stream::PairSpec;
using tt::stream::StreamProgramBuilder;
using tt::stream::TaskGraph;

/** Host graph whose bodies count their own executions. */
struct CountedGraph
{
    TaskGraph graph;
    std::shared_ptr<std::atomic<int>> mem_runs =
        std::make_shared<std::atomic<int>>(0);
    std::shared_ptr<std::atomic<int>> cmp_runs =
        std::make_shared<std::atomic<int>>(0);
};

CountedGraph
countedGraph(int pairs)
{
    CountedGraph counted;
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    auto mem_runs = counted.mem_runs;
    auto cmp_runs = counted.cmp_runs;
    builder.addPairs(pairs, [&](int) {
        PairSpec spec;
        spec.host_memory = [mem_runs] { ++*mem_runs; };
        spec.host_compute = [cmp_runs] { ++*cmp_runs; };
        spec.bytes = 64;
        spec.compute_cycles = 1;
        return spec;
    });
    counted.graph = std::move(builder).build();
    return counted;
}

EngineOptions
hostOptions(int threads)
{
    EngineOptions opts;
    opts.threads = threads;
    opts.pin_affinity = false;
    return opts;
}

/** As test_policies' driveStationary: a clean stationary workload. */
void
driveValid(SchedulingPolicy &policy, double tml, double tql, double tc,
           int pairs, double *clock)
{
    for (int i = 0; i < pairs; ++i) {
        const int mtl = policy.currentMtl();
        PairSample s;
        s.tm = tml + mtl * tql;
        s.tc = tc;
        *clock += s.tm + s.tc;
        s.end_time = *clock;
        s.mtl = mtl;
        policy.onPairMeasured(s);
    }
}

/** Feed `pairs` corrupted (NaN) samples. */
void
driveGarbage(SchedulingPolicy &policy, int pairs, double *clock)
{
    for (int i = 0; i < pairs; ++i) {
        PairSample s;
        s.tm = std::nan("");
        s.tc = std::nan("");
        *clock += 0.1;
        s.end_time = *clock;
        s.mtl = policy.currentMtl();
        policy.onPairMeasured(s);
    }
}

// ---------------------------------------------------------------------
// FaultPlan: seeded, order-independent decisions.

TEST(FaultPlan, IdenticalConfigsInjectIdenticalFaults)
{
    FaultConfig config;
    config.seed = 42;
    config.fail_p = 0.1;
    config.straggler_p = 0.1;
    config.corrupt_p = 0.1;
    config.stall_p = 0.05;
    const FaultPlan a(config);
    const FaultPlan b(config);
    for (int task = 0; task < 200; ++task) {
        for (int attempt = 0; attempt < 3; ++attempt) {
            const auto fa = a.forTask(task, attempt);
            const auto fb = b.forTask(task, attempt);
            EXPECT_EQ(fa.fail, fb.fail);
            EXPECT_EQ(fa.stall, fb.stall);
            EXPECT_EQ(fa.corrupt_sample, fb.corrupt_sample);
            EXPECT_EQ(fa.latency_factor, fb.latency_factor);
        }
        // Bit-for-bit equality: NaN payloads must match too.
        const double va = a.corruptValue(task, 0);
        const double vb = b.corruptValue(task, 0);
        std::uint64_t ba = 0;
        std::uint64_t bb = 0;
        std::memcpy(&ba, &va, sizeof(ba));
        std::memcpy(&bb, &vb, sizeof(bb));
        EXPECT_EQ(ba, bb) << "task " << task;
    }
}

TEST(FaultPlan, DifferentSeedsDiffer)
{
    FaultConfig config;
    config.fail_p = 0.2;
    config.seed = 1;
    const FaultPlan a(config);
    config.seed = 2;
    const FaultPlan b(config);
    int differing = 0;
    for (int task = 0; task < 400; ++task)
        differing += a.forTask(task, 0).fail != b.forTask(task, 0).fail;
    EXPECT_GT(differing, 0);
}

TEST(FaultPlan, ProbabilityExtremes)
{
    FaultConfig off;
    off.seed = 9;
    EXPECT_FALSE(off.enabled());

    FaultConfig always;
    always.seed = 9;
    always.fail_p = 1.0;
    const FaultPlan plan(always);
    EXPECT_TRUE(plan.enabled());
    for (int task = 0; task < 100; ++task)
        EXPECT_TRUE(plan.forTask(task, 0).fail);
}

TEST(FaultPlan, CorruptionIgnoresTheAttempt)
{
    FaultConfig config;
    config.seed = 5;
    config.corrupt_p = 0.3;
    const FaultPlan plan(config);
    for (int task = 0; task < 200; ++task)
        EXPECT_EQ(plan.forTask(task, 0).corrupt_sample,
                  plan.forTask(task, 3).corrupt_sample);
}

TEST(FaultPlan, CorruptValuesAreDegenerate)
{
    FaultConfig config;
    config.seed = 3;
    config.corrupt_p = 1.0;
    const FaultPlan plan(config);
    bool saw_nan = false;
    bool saw_inf = false;
    bool saw_negative = false;
    bool saw_huge = false;
    for (int task = 0; task < 256; ++task) {
        for (int field = 0; field < 2; ++field) {
            const double v = plan.corruptValue(task, field);
            saw_nan = saw_nan || std::isnan(v);
            saw_inf = saw_inf || std::isinf(v);
            saw_negative = saw_negative || v < 0.0;
            saw_huge = saw_huge || (std::isfinite(v) && v > 1e12);
            EXPECT_FALSE(std::isfinite(v) && v >= 0.0 && v < 1e12)
                << "corrupt value " << v << " looks like a real time";
        }
    }
    EXPECT_TRUE(saw_nan);
    EXPECT_TRUE(saw_inf);
    EXPECT_TRUE(saw_negative);
    EXPECT_TRUE(saw_huge);
}

// ---------------------------------------------------------------------
// Host runtime under injected faults.

TEST(HostChaos, CompletesWithRetriesUnderSeededPlan)
{
    FaultConfig config;
    config.seed = 1234;
    config.fail_p = 0.08;
    const FaultPlan plan(config);

    const int pairs = 64;
    CountedGraph counted = countedGraph(pairs);
    ConventionalPolicy policy(4);
    EngineOptions opts = hostOptions(4);
    opts.fault_plan = &plan;
    opts.retry_backoff_seconds = 1e-6;
    Runtime runtime(counted.graph, policy, opts);
    const auto result = runtime.run();

    EXPECT_FALSE(result.failed) << result.failure_reason;
    EXPECT_GT(result.task_retries, 0)
        << "seed 1234 at fail_p=0.08 must inject at least one failure";
    EXPECT_EQ(result.task_failures, 0);
    // Every pair produced exactly one sample despite the retries...
    EXPECT_EQ(result.samples.size(), static_cast<std::size_t>(pairs));
    // ...and both bodies ran at least once per pair (retries re-run
    // bodies, so the counters exceed the pair count).
    EXPECT_GE(counted.mem_runs->load(), pairs);
    EXPECT_GE(counted.cmp_runs->load(), pairs);
    EXPECT_GT(counted.mem_runs->load() + counted.cmp_runs->load(),
              2 * pairs);
}

TEST(HostChaos, ExhaustedRetriesFailCleanly)
{
    FaultConfig config;
    config.seed = 1;
    config.fail_p = 1.0;
    const FaultPlan plan(config);

    CountedGraph counted = countedGraph(8);
    ConventionalPolicy policy(2);
    EngineOptions opts = hostOptions(2);
    opts.fault_plan = &plan;
    opts.max_task_retries = 2;
    opts.retry_backoff_seconds = 1e-6;
    Runtime runtime(counted.graph, policy, opts);
    const auto result = runtime.run();

    EXPECT_TRUE(result.failed);
    EXPECT_FALSE(result.failure_reason.empty());
    EXPECT_GE(result.task_failures, 1);
    // Exactly max_task_retries re-executions per failing task.
    EXPECT_GE(result.task_retries, 2);
}

TEST(HostChaos, StragglersAndStallsStillComplete)
{
    FaultConfig config;
    config.seed = 77;
    config.straggler_p = 0.1;
    config.straggler_factor = 3.0;
    config.stall_p = 0.05;
    config.stall_seconds = 2e-3;
    const FaultPlan plan(config);

    const int pairs = 32;
    CountedGraph counted = countedGraph(pairs);
    ConventionalPolicy policy(4);
    EngineOptions opts = hostOptions(4);
    opts.fault_plan = &plan;
    Runtime runtime(counted.graph, policy, opts);
    const auto result = runtime.run();

    EXPECT_FALSE(result.failed);
    EXPECT_EQ(result.task_retries, 0);
    EXPECT_EQ(counted.mem_runs->load(), pairs);
    EXPECT_EQ(counted.cmp_runs->load(), pairs);
    EXPECT_EQ(result.samples.size(), static_cast<std::size_t>(pairs));
}

TEST(HostChaos, CorruptedSamplesReachThePolicyMarked)
{
    FaultConfig config;
    config.seed = 11;
    config.corrupt_p = 0.5;
    const FaultPlan plan(config);

    const int pairs = 64;
    CountedGraph counted = countedGraph(pairs);
    // Guarded policy: rejects the garbage instead of wedging.
    DynamicThrottlePolicy policy(4, 8);
    EngineOptions opts = hostOptions(4);
    opts.fault_plan = &plan;
    Runtime runtime(counted.graph, policy, opts);
    const auto result = runtime.run();

    EXPECT_FALSE(result.failed);
    EXPECT_EQ(result.samples.size(), static_cast<std::size_t>(pairs));
    EXPECT_GT(result.policy_stats.samples_rejected, 0);
    int corrupted = 0;
    for (const auto &sample : result.samples)
        corrupted += !std::isfinite(sample.tm) || sample.tm < 0.0;
    EXPECT_GT(corrupted, 0);
    EXPECT_LT(corrupted, pairs);
    // The policy never published an out-of-range MTL.
    for (const auto &[when, mtl] : result.mtl_trace) {
        EXPECT_GE(mtl, 1);
        EXPECT_LE(mtl, 4);
    }
}

// A wedged worker (stall far beyond the deadline) must be converted
// into a clean diagnostic exit with the configured code.
TEST(HostWatchdogDeathTest, ConvertsWedgeIntoCleanExit)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            FaultConfig config;
            config.seed = 2;
            config.stall_p = 1.0;
            config.stall_seconds = 30.0;
            const FaultPlan plan(config);
            CountedGraph counted = countedGraph(8);
            ConventionalPolicy policy(2);
            EngineOptions opts = hostOptions(2);
            opts.fault_plan = &plan;
            opts.watchdog_seconds = 0.25;
            Runtime runtime(counted.graph, policy, opts);
            runtime.run();
        },
        ::testing::ExitedWithCode(3), "watchdog");
}

// ---------------------------------------------------------------------
// Policy graceful degradation.

TEST(PolicyDegradation, SampleGuardScreensGarbageAndOutliers)
{
    SampleGuard guard;
    PairSample good;
    good.tm = 0.5;
    good.tc = 1.0;
    good.end_time = 1.0;
    for (int i = 0; i < 32; ++i)
        EXPECT_TRUE(guard.accept(good));

    PairSample bad = good;
    bad.tm = std::nan("");
    EXPECT_FALSE(guard.accept(bad));
    bad = good;
    bad.tc = -1.0;
    EXPECT_FALSE(guard.accept(bad));
    bad = good;
    bad.tm = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(guard.accept(bad));
    bad = good;
    bad.tm = 1e9; // 1000x the running mean: a clock glitch, not a task
    EXPECT_FALSE(guard.accept(bad));
    EXPECT_EQ(guard.rejected(), 4);
    // A merely slow sample is not an outlier.
    PairSample slow = good;
    slow.tm = 5.0;
    EXPECT_TRUE(guard.accept(slow));
}

TEST(PolicyDegradation, DynamicFallsBackToStaticAndRecovers)
{
    const int cores = 4;
    DynamicThrottlePolicy policy(cores, 4);
    policy.setFaultTolerance(/*reject_limit=*/8, /*reenter_after=*/4);
    double clock = 0.0;

    // Healthy compute-bound phase: converges to MTL 1.
    driveValid(policy, 0.08, 0.005, 1.0, 120, &clock);
    ASSERT_EQ(policy.currentMtl(), 1);
    ASSERT_FALSE(policy.degraded());

    // Sustained garbage: after reject_limit consecutive rejections
    // the policy falls back to the safe static MTL (= n).
    driveGarbage(policy, 8, &clock);
    EXPECT_TRUE(policy.degraded());
    EXPECT_EQ(policy.currentMtl(), cores);
    EXPECT_EQ(policy.stats().fallbacks, 1);
    EXPECT_GE(policy.stats().samples_rejected, 8);

    // More garbage while degraded: stays put, no second fallback.
    driveGarbage(policy, 8, &clock);
    EXPECT_TRUE(policy.degraded());
    EXPECT_EQ(policy.stats().fallbacks, 1);

    // Valid samples return: re-enters dynamic selection and settles
    // back on the compute-bound answer.
    const long selections_before = policy.stats().selections;
    driveValid(policy, 0.08, 0.005, 1.0, 120, &clock);
    EXPECT_FALSE(policy.degraded());
    EXPECT_GT(policy.stats().selections, selections_before);
    EXPECT_EQ(policy.currentMtl(), 1);
}

TEST(PolicyDegradation, RejectionsMustBeConsecutiveToDegrade)
{
    DynamicThrottlePolicy policy(4, 4);
    policy.setFaultTolerance(/*reject_limit=*/6, /*reenter_after=*/4);
    double clock = 0.0;
    driveValid(policy, 0.08, 0.005, 1.0, 40, &clock);
    // Interleaved garbage never reaches 6 in a row.
    for (int i = 0; i < 10; ++i) {
        driveGarbage(policy, 5, &clock);
        driveValid(policy, 0.08, 0.005, 1.0, 2, &clock);
    }
    EXPECT_FALSE(policy.degraded());
    EXPECT_EQ(policy.stats().fallbacks, 0);
    EXPECT_GE(policy.stats().samples_rejected, 50);
}

TEST(PolicyDegradation, OnlineFallsBackToStaticAndRecovers)
{
    const int cores = 4;
    OnlineExhaustivePolicy policy(cores, 4);
    policy.setFaultTolerance(/*reject_limit=*/8, /*reenter_after=*/4);
    double clock = 0.0;

    // Healthy phase: the initial brute-force search completes.
    driveValid(policy, 0.08, 0.005, 1.0, 160, &clock);
    ASSERT_GE(policy.stats().selections, 1);
    ASSERT_FALSE(policy.degraded());

    driveGarbage(policy, 8, &clock);
    EXPECT_TRUE(policy.degraded());
    EXPECT_EQ(policy.currentMtl(), cores);
    EXPECT_EQ(policy.stats().fallbacks, 1);

    // Recovery re-runs the search from scratch.
    const long selections_before = policy.stats().selections;
    driveValid(policy, 0.08, 0.005, 1.0, 200, &clock);
    EXPECT_FALSE(policy.degraded());
    EXPECT_GT(policy.stats().selections, selections_before);
    EXPECT_GE(policy.currentMtl(), 1);
    EXPECT_LE(policy.currentMtl(), cores);
}

// ---------------------------------------------------------------------
// Simulated runtime under the same plans: deterministic chaos.

TEST(SimChaos, SeededRunsAreBitIdentical)
{
    const auto machine_config = tt::cpu::MachineConfig::i7_860_1dimm();
    tt::workloads::SyntheticParams params;
    params.tm1_over_tc = 1.0;
    params.pairs = 64;

    FaultConfig config;
    config.seed = 99;
    config.fail_p = 0.03;
    config.straggler_p = 0.05;
    config.straggler_factor = 2.0;
    config.corrupt_p = 0.05;
    const FaultPlan plan(config);

    auto once = [&] {
        tt::cpu::SimMachine machine(machine_config);
        const TaskGraph graph =
            tt::workloads::buildSyntheticSim(machine_config, params);
        DynamicThrottlePolicy policy(machine_config.contexts(), 8);
        tt::exec::EngineOptions options;
        options.fault_plan = &plan;
        options.max_task_retries = 3;
        options.retry_backoff_seconds = 1e-6;
        tt::simrt::SimRuntime runtime(machine, graph, policy, options);
        return runtime.run();
    };

    const auto a = once();
    const auto b = once();
    EXPECT_FALSE(a.failed);
    EXPECT_GT(a.task_retries, 0);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.task_retries, b.task_retries);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        // NaN-tolerant equality: corrupted fields corrupt identically.
        const bool tm_equal =
            a.samples[i].tm == b.samples[i].tm ||
            (std::isnan(a.samples[i].tm) && std::isnan(b.samples[i].tm));
        EXPECT_TRUE(tm_equal) << "sample " << i;
        EXPECT_EQ(a.samples[i].end_time, b.samples[i].end_time);
        EXPECT_EQ(a.samples[i].mtl, b.samples[i].mtl);
    }
}

TEST(SimChaos, RetryExhaustionFailsCleanly)
{
    const auto machine_config = tt::cpu::MachineConfig::i7_860_1dimm();
    tt::workloads::SyntheticParams params;
    params.pairs = 16;
    tt::cpu::SimMachine machine(machine_config);
    const TaskGraph graph =
        tt::workloads::buildSyntheticSim(machine_config, params);

    FaultConfig config;
    config.seed = 4;
    config.fail_p = 1.0;
    const FaultPlan plan(config);

    ConventionalPolicy policy(machine_config.contexts());
    tt::exec::EngineOptions options;
    options.fault_plan = &plan;
    options.max_task_retries = 1;
    options.retry_backoff_seconds = 1e-6;
    tt::simrt::SimRuntime runtime(machine, graph, policy, options);
    const auto result = runtime.run();
    EXPECT_TRUE(result.failed);
    EXPECT_FALSE(result.failure_reason.empty());
    EXPECT_GE(result.task_failures, 1);
}

// ---------------------------------------------------------------------
// Deterministic chaos soak: several seeds, full fault mix, real
// threads. Every run must either drain completely or fail cleanly --
// never hang, crash or mis-count (the sanitizer presets run this).

TEST(ChaosSoak, SeededHostRunsDrainOrFailCleanly)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        FaultConfig config;
        config.seed = seed;
        config.fail_p = 0.04;
        config.straggler_p = 0.04;
        config.straggler_factor = 2.0;
        config.corrupt_p = 0.08;
        config.stall_p = 0.02;
        config.stall_seconds = 1e-3;
        const FaultPlan plan(config);

        const int pairs = 32;
        CountedGraph counted = countedGraph(pairs);
        DynamicThrottlePolicy policy(4, 8);
        policy.setFaultTolerance(/*reject_limit=*/16,
                                 /*reenter_after=*/8);
        EngineOptions opts = hostOptions(4);
        opts.fault_plan = &plan;
        opts.retry_backoff_seconds = 1e-6;
        opts.watchdog_seconds = 60.0; // backstop only: must not fire
        Runtime runtime(counted.graph, policy, opts);
        const auto result = runtime.run();

        if (result.failed) {
            EXPECT_FALSE(result.failure_reason.empty())
                << "seed " << seed;
            continue;
        }
        EXPECT_EQ(result.samples.size(),
                  static_cast<std::size_t>(pairs))
            << "seed " << seed;
        EXPECT_GE(counted.mem_runs->load(), pairs) << "seed " << seed;
        EXPECT_GE(counted.cmp_runs->load(), pairs) << "seed " << seed;
        const int final_mtl = policy.currentMtl();
        EXPECT_GE(final_mtl, 1) << "seed " << seed;
        EXPECT_LE(final_mtl, 4) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Host stress: four workers racing retries, stalls and the MTL gate.
// The fault;concurrency labels put these in both sanitizer presets;
// under tsan they also check that spans are recorded only under the
// run mutex: pairs close on whichever worker completes them, so an
// unlocked record would race.

TEST(HostStress, FourWorkersDrainUnderRetriesAndStalls)
{
    const int pairs = 128;
    long total_retries = 0;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        FaultConfig config;
        config.seed = seed;
        config.fail_p = 0.1;
        config.stall_p = 0.02;
        config.stall_seconds = 200e-6;
        const FaultPlan plan(config);

        CountedGraph counted = countedGraph(pairs);
        StaticMtlPolicy policy(2, 4);
        EngineOptions opts = hostOptions(4);
        opts.fault_plan = &plan;
        opts.max_task_retries = 6; // a drained run is the contract here
        opts.retry_backoff_seconds = 1e-6;
        opts.watchdog_seconds = 60.0; // backstop only: must not fire
        Runtime runtime(counted.graph, policy, opts);
        const auto result = runtime.run();

        ASSERT_FALSE(result.failed)
            << "seed " << seed << ": " << result.failure_reason;
        EXPECT_EQ(tt::exec::validateSchedule(counted.graph, result, 4),
                  "")
            << "seed " << seed;
        EXPECT_EQ(result.samples.size(),
                  static_cast<std::size_t>(pairs))
            << "seed " << seed;
        EXPECT_GE(counted.mem_runs->load(), pairs) << "seed " << seed;
        EXPECT_GE(counted.cmp_runs->load(), pairs) << "seed " << seed;
        EXPECT_EQ(result.task_retries,
                  static_cast<long>(result.retries.size()))
            << "seed " << seed;
        total_retries += result.task_retries;

        // Exactly one terminal span per pair, none dropped.
        EXPECT_EQ(result.spans_dropped, 0u) << "seed " << seed;
        std::vector<int> terminal(static_cast<std::size_t>(pairs), 0);
        for (const JobSpan &span : result.spans) {
            ASSERT_GE(span.pair, 0);
            ASSERT_LT(span.pair, pairs);
            ++terminal[static_cast<std::size_t>(span.pair)];
            EXPECT_EQ(span.outcome, SpanOutcome::Completed)
                << "seed " << seed << " pair " << span.pair;
        }
        for (int p = 0; p < pairs; ++p)
            EXPECT_EQ(terminal[static_cast<std::size_t>(p)], 1)
                << "seed " << seed << " pair " << p;
    }
    EXPECT_GT(total_retries, 0) << "the plans must inject failures";
}

/**
 * Every attempt fails: the first task to exhaust its retries fails
 * the run while the other workers hold retries still in backoff
 * (abandoned by the failing path) or already due (abandoned by their
 * own worker). Varying the backoff moves where each retry stands
 * when the run fails. Every run must still end, with one Failed span
 * per exhausted task and every granted retry accounted for.
 */
TEST(HostStress, FourWorkersFailCleanlyWithRetriesInFlight)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        FaultConfig config;
        config.seed = seed;
        config.fail_p = 1.0;
        const FaultPlan plan(config);

        CountedGraph counted = countedGraph(16);
        ConventionalPolicy policy(4);
        EngineOptions opts = hostOptions(4);
        opts.fault_plan = &plan;
        opts.retry_backoff_seconds =
            1e-6 * static_cast<double>(1u << (seed % 5));
        opts.watchdog_seconds = 60.0; // backstop only: must not fire
        Runtime runtime(counted.graph, policy, opts);
        const auto result = runtime.run();

        ASSERT_TRUE(result.failed) << "seed " << seed;
        EXPECT_FALSE(result.failure_reason.empty()) << "seed " << seed;
        EXPECT_GE(result.task_failures, 1) << "seed " << seed;
        EXPECT_EQ(result.task_retries,
                  static_cast<long>(result.retries.size()))
            << "seed " << seed;
        EXPECT_TRUE(result.samples.empty()) << "seed " << seed;
        EXPECT_EQ(static_cast<long>(result.spans.size()),
                  result.task_failures)
            << "seed " << seed;
        for (const JobSpan &span : result.spans)
            EXPECT_EQ(span.outcome, SpanOutcome::Failed)
                << "seed " << seed << " pair " << span.pair;
    }
}

/**
 * A run that fails while compute completions are still handing their
 * pairs off: a completion in a failed run leaves its pair to the
 * finish check, which must drain the hand-off list, so every compute
 * task that ran has its sample and its Completed span.
 */
TEST(HostStress, FailedRunKeepsEveryHandedOffPair)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        FaultConfig config;
        config.seed = seed;
        config.fail_p = 0.02;
        const FaultPlan plan(config);

        CountedGraph counted = countedGraph(512);
        ConventionalPolicy policy(4);
        EngineOptions opts = hostOptions(4);
        opts.fault_plan = &plan;
        opts.max_task_retries = 0;
        opts.watchdog_seconds = 60.0; // backstop only: must not fire
        Runtime runtime(counted.graph, policy, opts);
        const auto result = runtime.run();

        ASSERT_TRUE(result.failed) << "seed " << seed;
        EXPECT_FALSE(result.failure_reason.empty()) << "seed " << seed;
        EXPECT_GE(result.task_failures, 1) << "seed " << seed;
        long completed = 0;
        for (const JobSpan &span : result.spans)
            completed += span.outcome == SpanOutcome::Completed;
        long computes = 0;
        for (const auto &event : result.trace)
            computes += !event.is_memory;
        EXPECT_EQ(static_cast<long>(result.samples.size()), completed)
            << "seed " << seed;
        EXPECT_EQ(static_cast<long>(result.samples.size()), computes)
            << "seed " << seed;
    }
}

} // namespace
