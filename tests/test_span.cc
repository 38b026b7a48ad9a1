/**
 * @file
 * Live-telemetry contracts: per-job causal spans (assembly under
 * retries, shedding and deadline misses; the additive critical-path
 * decomposition), the bounded SpanBuffer, the OpenMetrics exposition
 * format, the critical-path report section's diff contract, and the
 * self-observability budget (obs.overhead.* under 3% of makespan on
 * the host backend).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "cpu/sim_machine.hh"
#include "exec/engine.hh"
#include "fault/fault_plan.hh"
#include "load/arrival.hh"
#include "obs/analyzer.hh"
#include "obs/live.hh"
#include "obs/perf/sim_counter_provider.hh"
#include "obs/span.hh"
#include "runtime/runtime.hh"
#include "simrt/sim_runtime.hh"
#include "stream/builder.hh"
#include "util/json.hh"
#include "util/stats.hh"

namespace {

using tt::core::StaticMtlPolicy;
using tt::exec::EngineOptions;
using tt::obs::CriticalPath;
using tt::obs::JobSpan;
using tt::obs::SpanBuffer;
using tt::obs::SpanOutcome;
using tt::stream::PairSpec;
using tt::stream::StreamProgramBuilder;
using tt::stream::TaskGraph;

/** Simulator-only graph: bytes/cycles descriptors, no host bodies. */
TaskGraph
simGraph(int pairs)
{
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(pairs, [](int) {
        PairSpec spec;
        spec.bytes = 128 * 1024;
        spec.compute_cycles = 200000;
        return spec;
    });
    return std::move(builder).build();
}

/** ~tens of microseconds of real work for host task bodies. */
void
spin()
{
    volatile double acc = 0.0;
    for (int i = 0; i < 20000; ++i)
        acc = acc + static_cast<double>(i);
}

TaskGraph
hostGraph(int pairs)
{
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(pairs, [](int) {
        PairSpec spec;
        spec.bytes = 128 * 1024;
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

tt::exec::RunResult
runSim(const TaskGraph &graph, const EngineOptions &options,
       int contexts = 2)
{
    tt::cpu::SimMachine machine(simConfig(contexts));
    StaticMtlPolicy policy(1, contexts);
    tt::simrt::SimRuntime sim(machine, graph, policy, options);
    return sim.run();
}

/** Assert the additive identity: components sum to the response. */
void
expectDecomposes(const JobSpan &span)
{
    const CriticalPath &cp = span.critical_path;
    EXPECT_GE(cp.admission, 0.0);
    EXPECT_GE(cp.queue_wait, 0.0);
    EXPECT_GE(cp.compute, 0.0);
    EXPECT_GE(cp.mem_stall, 0.0);
    EXPECT_GE(cp.retry_backoff, 0.0);
    EXPECT_NEAR(cp.sum(), cp.response,
                std::max(1e-12, cp.response * 0.01))
        << "pair " << span.pair;
    EXPECT_DOUBLE_EQ(cp.response, span.end - span.arrival);
}

TEST(SpanBuffer, OverwritesOldestAndCountsDrops)
{
    SpanBuffer buffer(4);
    EXPECT_EQ(buffer.capacity(), 4u);
    for (int i = 0; i < 10; ++i) {
        JobSpan span;
        span.pair = i;
        buffer.record(std::move(span));
    }
    EXPECT_EQ(buffer.size(), 4u);
    EXPECT_EQ(buffer.recorded(), 10u);
    EXPECT_EQ(buffer.dropped(), 6u);
    const std::vector<JobSpan> spans = buffer.spans();
    ASSERT_EQ(spans.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(spans[static_cast<std::size_t>(i)].pair, 6 + i)
            << "oldest-first order after wrap";
}

TEST(SpanBuffer, HoldsEverythingUnderCapacity)
{
    SpanBuffer buffer(16);
    for (int i = 0; i < 5; ++i) {
        JobSpan span;
        span.pair = i;
        buffer.record(std::move(span));
    }
    EXPECT_EQ(buffer.size(), 5u);
    EXPECT_EQ(buffer.dropped(), 0u);
    const std::vector<JobSpan> spans = buffer.spans();
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(spans[static_cast<std::size_t>(i)].pair, i);
}

TEST(Span, OutcomeNamesAreStable)
{
    EXPECT_STREQ(spanOutcomeName(SpanOutcome::Completed), "completed");
    EXPECT_STREQ(spanOutcomeName(SpanOutcome::DeadlineMiss),
                 "deadline_miss");
    EXPECT_STREQ(spanOutcomeName(SpanOutcome::Shed), "shed");
    EXPECT_STREQ(spanOutcomeName(SpanOutcome::Failed), "failed");
}

/**
 * Closed-loop runs get spans too: arrival is the instant the pair's
 * memory task became ready, every pair completes, and the critical
 * path decomposes exactly -- with the synthesized counters attached,
 * part of the executing time lands in mem_stall.
 */
TEST(Span, ClosedLoopSimSpansDecomposeExactly)
{
    const TaskGraph graph = simGraph(32);
    tt::obs::perf::SimCounterProvider counters;
    EngineOptions options;
    options.counters = &counters;
    const auto result = runSim(graph, options);
    ASSERT_FALSE(result.failed);
    EXPECT_EQ(result.spans_dropped, 0u);
    ASSERT_EQ(result.spans.size(), 32u);

    bool any_stall = false;
    for (const JobSpan &span : result.spans) {
        EXPECT_EQ(span.outcome, SpanOutcome::Completed);
        EXPECT_FALSE(span.open_loop);
        ASSERT_GE(span.attempts.size(), 2u); // memory + compute
        EXPECT_TRUE(span.attempts.front().is_memory);
        EXPECT_FALSE(span.attempts.back().is_memory);
        for (const auto &attempt : span.attempts) {
            EXPECT_FALSE(attempt.failed);
            EXPECT_GE(attempt.start, span.arrival);
            EXPECT_LE(attempt.end, span.end + 1e-12);
        }
        expectDecomposes(span);
        EXPECT_GT(span.critical_path.compute +
                      span.critical_path.mem_stall,
                  0.0);
        any_stall |= span.critical_path.mem_stall > 0.0;
    }
    EXPECT_TRUE(any_stall)
        << "synthesized counters never attributed a memory stall";
}

/**
 * Failed attempts stay on the span: the retry sequence is visible as
 * failed SpanAttempts with their granted backoff, the lost time lands
 * in retry_backoff, and the identity still holds.
 */
TEST(Span, RetriedJobsCarryFailedAttemptsAndBackoff)
{
    const TaskGraph graph = simGraph(48);
    tt::fault::FaultConfig config;
    config.seed = 7;
    config.fail_p = 0.12;
    const tt::fault::FaultPlan plan(config);

    EngineOptions options;
    options.fault_plan = &plan;
    options.max_task_retries = 4;
    options.retry_backoff_seconds = 20e-6;
    const auto result = runSim(graph, options, 1);
    ASSERT_FALSE(result.failed);
    ASSERT_GT(result.task_retries, 0);

    long failed_attempts = 0;
    for (const JobSpan &span : result.spans) {
        EXPECT_EQ(span.outcome, SpanOutcome::Completed);
        bool saw_failure = false;
        for (const auto &attempt : span.attempts) {
            if (!attempt.failed) {
                EXPECT_EQ(attempt.backoff_seconds, 0.0);
                continue;
            }
            ++failed_attempts;
            saw_failure = true;
            EXPECT_GT(attempt.backoff_seconds, 0.0)
                << "granted retries record their backoff";
        }
        if (saw_failure)
            EXPECT_GT(span.critical_path.retry_backoff, 0.0);
        else
            EXPECT_EQ(span.critical_path.retry_backoff, 0.0);
        expectDecomposes(span);
    }
    EXPECT_EQ(failed_attempts, result.task_retries);
}

/**
 * Shed jobs produce spans too -- no attempts, the shed reason, a
 * zero-length response -- and the shed/completed split matches the
 * run's admission counters.
 */
TEST(Span, OpenLoopShedJobsProduceShedSpans)
{
    const TaskGraph graph = simGraph(48);
    tt::load::ArrivalConfig arrivals;
    arrivals.seed = 9;
    arrivals.rate = 1e6; // far past capacity
    arrivals.slo_seconds = 30.0;
    const tt::load::ArrivalPlan plan =
        tt::load::buildArrivalPlan(arrivals, graph.pairCount());

    EngineOptions options;
    options.arrival_plan = &plan;
    options.admission.queue_cap = 4;
    options.admission.service_tml = 200e-6;
    options.admission.service_tql = 50e-6;
    const auto result = runSim(graph, options);
    ASSERT_FALSE(result.failed);
    ASSERT_GT(result.jobs_shed, 0);

    long shed = 0;
    long completed = 0;
    for (const JobSpan &span : result.spans) {
        EXPECT_TRUE(span.open_loop);
        if (span.outcome == SpanOutcome::Shed) {
            ++shed;
            EXPECT_TRUE(span.attempts.empty());
            EXPECT_EQ(span.decision,
                      tt::load::AdmissionDecision::Shed);
            EXPECT_NE(span.shed_reason, tt::load::ShedReason::None);
            EXPECT_DOUBLE_EQ(span.end, span.arrival);
            EXPECT_DOUBLE_EQ(span.critical_path.response, 0.0);
        } else {
            ++completed;
            EXPECT_FALSE(span.attempts.empty());
            expectDecomposes(span);
        }
    }
    EXPECT_EQ(shed, result.jobs_shed);
    EXPECT_EQ(completed, result.jobs_admitted);
    EXPECT_EQ(shed + completed,
              static_cast<long>(result.spans.size()));
}

/** Jobs finishing past their relative SLO close as DeadlineMiss. */
TEST(Span, DeadlineMissesCloseSpansAsDeadlineMiss)
{
    const TaskGraph graph = simGraph(32);
    tt::load::ArrivalConfig arrivals;
    arrivals.seed = 3;
    arrivals.rate = 1000.0;      // comfortably under capacity
    arrivals.slo_seconds = 1e-6; // nothing can finish this fast
    const tt::load::ArrivalPlan plan =
        tt::load::buildArrivalPlan(arrivals, graph.pairCount());

    EngineOptions options;
    options.arrival_plan = &plan;
    const auto result = runSim(graph, options);
    ASSERT_FALSE(result.failed);
    ASSERT_GT(result.jobs_deadline_missed, 0);

    long missed = 0;
    for (const JobSpan &span : result.spans) {
        if (span.outcome != SpanOutcome::DeadlineMiss)
            continue;
        ++missed;
        EXPECT_FALSE(span.attempts.empty());
        expectDecomposes(span);
    }
    EXPECT_EQ(missed, result.jobs_deadline_missed);
}

TEST(OpenMetrics, NameSanitization)
{
    EXPECT_EQ(tt::obs::openMetricsName("obs.spans_dropped"),
              "obs_spans_dropped");
    EXPECT_EQ(tt::obs::openMetricsName("runtime.tm-seconds"),
              "runtime_tm_seconds");
    EXPECT_EQ(tt::obs::openMetricsName("9lives"), "_9lives");
    EXPECT_EQ(tt::obs::openMetricsName(""), "_");
    EXPECT_EQ(tt::obs::openMetricsName("a:b_C2"), "a:b_C2");
}

/**
 * Golden-text round trip of the exposition format: counters become
 * `_total` samples, gauges stay plain, histograms render as summaries
 * with the four quantiles, and the stream terminates with `# EOF`.
 */
TEST(OpenMetrics, RendersRegistrySnapshot)
{
    tt::MetricsRegistry metrics;
    metrics.add("obs.spans_dropped", 3);
    metrics.set("9weird.gauge", 1.5);
    for (int i = 1; i <= 100; ++i)
        metrics.observe("runtime.tm_seconds", 1e-6 * i);

    const std::string text = tt::obs::openMetricsText(metrics, 1.25);

    EXPECT_NE(text.find("# TYPE obs_spans_dropped counter\n"
                        "obs_spans_dropped_total 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE _9weird_gauge gauge\n"
                        "_9weird_gauge 1.5\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE runtime_tm_seconds summary\n"),
              std::string::npos);
    for (const char *q : {"0.5", "0.9", "0.95", "0.99"})
        EXPECT_NE(text.find("runtime_tm_seconds{quantile=\"" +
                            std::string(q) + "\"} "),
                  std::string::npos);
    EXPECT_NE(text.find("runtime_tm_seconds_count 100\n"),
              std::string::npos);
    EXPECT_NE(text.find("runtime_tm_seconds_sum "), std::string::npos);
    EXPECT_NE(text.find("obs_snapshot_time_seconds 1.25\n"),
              std::string::npos);
    const std::string eof = "# EOF\n";
    ASSERT_GE(text.size(), eof.size());
    EXPECT_EQ(text.substr(text.size() - eof.size()), eof);

    // Without a snapshot time the clock gauge is omitted entirely.
    const std::string bare = tt::obs::openMetricsText(metrics);
    EXPECT_EQ(bare.find("obs_snapshot_time_seconds"),
              std::string::npos);
}

/**
 * The report's critical_path section exists only when the trace
 * carried spans, aggregates per priority class with means that keep
 * the additive identity, and -- the diff contract -- a report without
 * the section diffs cleanly against one with it, in both directions.
 */
TEST(Analyzer, CriticalPathSectionAndDiffContract)
{
    const TaskGraph graph = simGraph(32);
    const auto result = runSim(graph, EngineOptions{});
    ASSERT_FALSE(result.failed);

    tt::obs::AnalyzeOptions options;
    options.cores = 2;
    options.makespan = result.seconds;
    tt::obs::TraceData data = tt::exec::toTraceData(graph, result);
    ASSERT_FALSE(data.spans.empty());

    const tt::obs::Report with = tt::obs::analyze(data, options);
    ASSERT_TRUE(with.critical_path.valid);
    EXPECT_EQ(with.critical_path.jobs, 32);
    EXPECT_EQ(with.critical_path.shed, 0);
    ASSERT_EQ(with.critical_path.classes.size(), 1u);
    const tt::obs::CriticalPathClass &cls =
        with.critical_path.classes.front();
    EXPECT_EQ(cls.priority, 0);
    EXPECT_EQ(cls.jobs, 32);
    // Means of per-job identities sum to the mean response.
    EXPECT_NEAR(cls.admission + cls.queue_wait + cls.compute +
                    cls.mem_stall + cls.retry_backoff,
                cls.response.mean, cls.response.mean * 0.01);

    data.spans.clear();
    const tt::obs::Report without = tt::obs::analyze(data, options);
    EXPECT_FALSE(without.critical_path.valid);

    auto toJson = [](const tt::obs::Report &report) {
        std::ostringstream os;
        tt::obs::writeReportJson(report, os);
        return os.str();
    };
    const std::string with_text = toJson(with);
    const std::string without_text = toJson(without);
    EXPECT_NE(with_text.find("\"critical_path\""), std::string::npos);
    EXPECT_EQ(without_text.find("\"critical_path\""),
              std::string::npos);

    std::string error;
    const auto with_json = tt::json::parse(with_text, &error);
    ASSERT_TRUE(with_json) << error;
    const auto without_json = tt::json::parse(without_text, &error);
    ASSERT_TRUE(without_json) << error;

    // Section present on one side only: skipped, never an error.
    EXPECT_FALSE(
        tt::obs::diffReports(*with_json, *without_json, 0.05)
            .regressed());
    EXPECT_FALSE(
        tt::obs::diffReports(*without_json, *with_json, 0.05)
            .regressed());
    EXPECT_FALSE(tt::obs::diffReports(*with_json, *with_json, 0.05)
                     .regressed());

    // And a genuine tail-latency regression in the section is caught.
    tt::obs::Report worse = with;
    worse.critical_path.classes.front().response.p99 *= 2.0;
    const auto worse_json = tt::json::parse(toJson(worse), &error);
    ASSERT_TRUE(worse_json) << error;
    const auto diff =
        tt::obs::diffReports(*with_json, *worse_json, 0.05);
    ASSERT_TRUE(diff.regressed());
    EXPECT_NE(diff.regressions.front().metric.find("critical_path"),
              std::string::npos);
}

/**
 * Acceptance budget: total self-observability cost -- span assembly,
 * trace recording, counter reads, sampling, live export -- stays
 * under 3% of makespan on a real-thread run that exercises all of it.
 */
TEST(Span, HostObservabilityOverheadUnderThreePercent)
{
    const TaskGraph graph = hostGraph(64);
    tt::MetricsRegistry metrics;
    EngineOptions options;
    options.threads = 2;
    options.pin_affinity = false;
    options.metrics = &metrics;

    StaticMtlPolicy policy(1, 2);
    tt::runtime::Runtime runtime(graph, policy, options);

    tt::obs::LiveMetricsServer server("/tmp/tt_span_test.sock",
                                      metrics);
    const bool serving = server.start();
    const auto result = runtime.run();
    server.stop();
    ASSERT_FALSE(result.failed);
    EXPECT_TRUE(serving);

    [[maybe_unused]] const double overhead_seconds =
        1e-9 *
        static_cast<double>(
            metrics.counter("obs.overhead.trace_record_ns") +
            metrics.counter("obs.overhead.counter_read_ns") +
            metrics.counter("obs.overhead.sampler_ns") +
            metrics.counter("obs.overhead.live_export_ns"));
    ASSERT_GT(result.seconds, 0.0);
    // The budget only means something on uninstrumented builds: the
    // sanitizers slow the recording paths (atomics, registry strings)
    // far more than the task bodies, so the ratio is not the one
    // users pay. Everything else here still runs under them.
#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
    EXPECT_LT(overhead_seconds / result.seconds, 0.03)
        << "observability cost " << overhead_seconds * 1e3
        << " ms of " << result.seconds * 1e3 << " ms makespan";
#endif
    EXPECT_GT(metrics.counter("obs.overhead.trace_record_ns"), 0);
}

} // namespace
