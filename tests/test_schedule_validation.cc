/**
 * @file
 * Schedule-trace validation: structural invariants of the simulated
 * scheduler checked on crafted workloads and on randomly fuzzed task
 * graphs under every policy family, and of the host scheduler on the
 * same fuzzed graphs on worker threads.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/dynamic_policy.hh"
#include "core/online_exhaustive_policy.hh"
#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "runtime/runtime.hh"
#include "simrt/sim_runtime.hh"
#include "stream/builder.hh"
#include "util/random.hh"

namespace {

using tt::core::SchedulingPolicy;
using tt::cpu::MachineConfig;
using tt::exec::RunResult;
using tt::exec::validateSchedule;
using tt::stream::PairSpec;
using tt::stream::StreamProgramBuilder;
using tt::stream::TaskGraph;

TEST(ScheduleValidation, SimpleRunIsValid)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(16, [](int) {
        PairSpec spec;
        spec.bytes = 128 * 1024;
        spec.compute_cycles = 100000;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    tt::core::StaticMtlPolicy policy(2, cfg.contexts());
    const RunResult result = tt::simrt::runOnce(cfg, graph, policy);
    EXPECT_EQ(validateSchedule(graph, result, cfg.contexts()), "");
}

TEST(ScheduleValidation, DetectsForgedOverlap)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(4, [](int) {
        PairSpec spec;
        spec.bytes = 64 * 1024;
        spec.compute_cycles = 50000;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    tt::core::ConventionalPolicy policy(cfg.contexts());
    RunResult result = tt::simrt::runOnce(cfg, graph, policy);
    ASSERT_EQ(validateSchedule(graph, result, cfg.contexts()), "");

    // Forge the trace: move every task onto context 0 at time 0.
    RunResult forged = result;
    for (auto &entry : forged.trace) {
        entry.worker = 0;
        entry.start = 0.0;
    }
    EXPECT_NE(validateSchedule(graph, forged, cfg.contexts()), "");
}

TEST(ScheduleValidation, DetectsForgedMtlViolation)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(8, [](int) {
        PairSpec spec;
        spec.bytes = 256 * 1024;
        spec.compute_cycles = 100000;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    tt::core::ConventionalPolicy policy(cfg.contexts());
    RunResult result = tt::simrt::runOnce(cfg, graph, policy);
    ASSERT_EQ(validateSchedule(graph, result, cfg.contexts()), "");

    // Forge: claim the MTL was 1 at every dispatch.
    RunResult forged = result;
    for (auto &entry : forged.trace)
        entry.mtl = 1;
    EXPECT_NE(validateSchedule(graph, forged, cfg.contexts()), "");
}

TEST(ScheduleValidation, DetectsMissingTask)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(2, [](int) {
        PairSpec spec;
        spec.bytes = 64 * 1024;
        spec.compute_cycles = 1000;
        return spec;
    });
    const TaskGraph graph = std::move(builder).build();
    tt::core::ConventionalPolicy policy(cfg.contexts());
    RunResult result = tt::simrt::runOnce(cfg, graph, policy);
    result.trace.pop_back();
    EXPECT_NE(validateSchedule(graph, result, cfg.contexts()), "");
}

/**
 * A random multi-phase graph (sizes, ratios, extra intra-phase
 * dependencies between pairs) drawn from `rng`. Its tasks have no
 * host bodies, which the host backend runs as empty ones.
 */
TaskGraph
fuzzGraph(tt::Rng &rng)
{
    StreamProgramBuilder builder(/*uniform_pairs=*/false);
    const int phases = static_cast<int>(rng.nextInt(1, 4));
    int total_pairs = 0;
    for (int p = 0; p < phases; ++p) {
        builder.beginPhase("fuzz" + std::to_string(p));
        const int pairs = static_cast<int>(rng.nextInt(2, 14));
        const int first = total_pairs;
        for (int i = 0; i < pairs; ++i) {
            PairSpec spec;
            spec.bytes = 64 * static_cast<std::uint64_t>(
                                  rng.nextInt(0, 2048));
            spec.compute_cycles =
                static_cast<std::uint64_t>(rng.nextInt(0, 300000));
            spec.write_fraction = rng.nextDouble();
            spec.footprint_bytes = spec.bytes;
            builder.addPair(std::move(spec));
        }
        total_pairs += pairs;
        // Random forward dependencies within the phase.
        for (int e = 0; e < pairs / 3; ++e) {
            const int a = static_cast<int>(
                rng.nextInt(first, total_pairs - 2));
            const int b = static_cast<int>(
                rng.nextInt(a + 1, total_pairs - 1));
            builder.dependPairs(a, b);
        }
    }
    return std::move(builder).build();
}

/**
 * Fuzz: random graphs (fuzzGraph) under a randomly chosen policy;
 * every schedule must validate and every pair must be sampled.
 */
class ScheduleFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ScheduleFuzz, RandomGraphsProduceValidSchedules)
{
    tt::Rng rng(GetParam());
    const auto cfg = MachineConfig::i7_860_1dimm();
    const int n = cfg.contexts();
    const TaskGraph graph = fuzzGraph(rng);
    const int total_pairs = graph.pairCount();

    std::unique_ptr<SchedulingPolicy> policy;
    switch (rng.nextInt(0, 3)) {
      case 0:
        policy = std::make_unique<tt::core::ConventionalPolicy>(n);
        break;
      case 1:
        policy = std::make_unique<tt::core::StaticMtlPolicy>(
            static_cast<int>(rng.nextInt(1, n)), n);
        break;
      case 2:
        policy = std::make_unique<tt::core::DynamicThrottlePolicy>(
            n, static_cast<int>(rng.nextInt(1, 8)));
        break;
      default:
        policy = std::make_unique<tt::core::OnlineExhaustivePolicy>(
            n, static_cast<int>(rng.nextInt(1, 8)));
        break;
    }

    const RunResult result = tt::simrt::runOnce(cfg, graph, *policy);
    EXPECT_EQ(validateSchedule(graph, result, n), "")
        << "seed " << GetParam();
    EXPECT_EQ(result.samples.size(),
              static_cast<std::size_t>(total_pairs));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

/**
 * The same graphs on four host worker threads with empty bodies,
 * under a constant MTL (a moving one can leave a late starter over
 * the MTL it was admitted under, on a real clock): cross-pair edges
 * release memory tasks through the ring while each memory task keeps
 * its compute partner. Every schedule must validate, every pair must
 * be sampled once and close one Completed span, and each span
 * attempt must name the worker and times its trace event has.
 */
class HostScheduleFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HostScheduleFuzz, RandomGraphsRunOnWorkerThreads)
{
    constexpr int kWorkers = 4;
    tt::Rng rng(GetParam());
    const TaskGraph graph = fuzzGraph(rng);
    tt::core::StaticMtlPolicy policy(
        static_cast<int>(rng.nextInt(1, kWorkers)), kWorkers);
    tt::exec::EngineOptions options;
    options.threads = kWorkers;
    options.pin_affinity = false;
    tt::runtime::Runtime runtime(graph, policy, options);
    const RunResult result = runtime.run();
    ASSERT_FALSE(result.failed) << result.failure_reason;
    EXPECT_EQ(validateSchedule(graph, result, kWorkers), "")
        << "seed " << GetParam();
    const auto pairs = static_cast<std::size_t>(graph.pairCount());
    EXPECT_EQ(result.samples.size(), pairs);

    std::vector<const tt::obs::TaskEvent *> event_of(
        static_cast<std::size_t>(graph.taskCount()), nullptr);
    for (const tt::obs::TaskEvent &event : result.trace)
        event_of[static_cast<std::size_t>(event.task)] = &event;
    ASSERT_EQ(result.spans.size(), pairs);
    std::vector<int> spans_of(pairs, 0);
    for (const tt::obs::JobSpan &span : result.spans) {
        ++spans_of[static_cast<std::size_t>(span.pair)];
        EXPECT_EQ(span.outcome, tt::obs::SpanOutcome::Completed);
        ASSERT_EQ(span.attempts.size(), 2u) << "pair " << span.pair;
        for (const tt::obs::SpanAttempt &attempt : span.attempts) {
            const tt::obs::TaskEvent *event =
                event_of[static_cast<std::size_t>(attempt.task)];
            ASSERT_NE(event, nullptr) << "task " << attempt.task;
            EXPECT_EQ(event->pair, span.pair);
            EXPECT_EQ(attempt.worker, event->worker)
                << "task " << attempt.task;
            EXPECT_EQ(attempt.start, event->start);
            EXPECT_EQ(attempt.end, event->end);
        }
    }
    for (std::size_t p = 0; p < pairs; ++p)
        EXPECT_EQ(spans_of[p], 1) << "pair " << p;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HostScheduleFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
