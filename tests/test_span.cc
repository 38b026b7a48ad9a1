/**
 * @file
 * Live-telemetry contracts: per-job causal spans (assembly under
 * retries, shedding and deadline misses; the additive critical-path
 * decomposition; every span and trace field pinned on six sim runs),
 * the span capacity, the OpenMetrics exposition format and the
 * snapshot sink's failure latch, the critical-path report section's
 * diff contract, and the self-observability budget (obs.overhead.*
 * under 3% of makespan on the host backend).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/dynamic_policy.hh"
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
 * A run that outgrows span_capacity keeps the spans it closed last,
 * oldest first, and counts the rest as dropped, in RunResult and in
 * obs.spans_dropped. The drain moves the records out of the ring, so
 * the drop count must come from the record counter, not from what
 * the ring still holds afterwards.
 */
TEST(Span, SpanCapacityKeepsTheLastSpansAndCountsDrops)
{
    const TaskGraph graph = simGraph(32);
    // Reference: the same deterministic run with room for every span.
    const auto full = runSim(graph, EngineOptions{});
    ASSERT_FALSE(full.failed);
    ASSERT_EQ(full.spans.size(), 32u);
    EXPECT_EQ(full.spans_dropped, 0u);

    tt::MetricsRegistry metrics;
    EngineOptions options;
    options.span_capacity = 8;
    options.metrics = &metrics;
    const auto capped = runSim(graph, options);
    ASSERT_FALSE(capped.failed);
    EXPECT_EQ(capped.spans_dropped, 24u);
    EXPECT_EQ(metrics.counter("obs.spans_dropped"), 24);
    ASSERT_EQ(capped.spans.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        const JobSpan &kept = capped.spans[i];
        const JobSpan &reference = full.spans[24 + i];
        EXPECT_EQ(kept.pair, reference.pair) << "span " << i;
        EXPECT_EQ(kept.outcome, SpanOutcome::Completed);
        EXPECT_DOUBLE_EQ(kept.end, reference.end) << "span " << i;
        if (i > 0) {
            EXPECT_LE(capped.spans[i - 1].end, kept.end)
                << "oldest first";
        }
    }
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

/** FNV-1a over the bytes of each value added, in order. */
class FieldHash
{
  public:
    template <class T>
    void
    add(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (const unsigned char byte : bytes) {
            hash_ ^= byte;
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Hash of every field of every span, attempts included, in order;
 *  doubles by their bits. */
std::uint64_t
spanDigest(const std::vector<JobSpan> &spans)
{
    FieldHash hash;
    for (const JobSpan &span : spans) {
        hash.add(span.pair);
        hash.add(span.priority);
        hash.add(span.open_loop);
        hash.add(span.arrival);
        hash.add(span.end);
        hash.add(span.decision);
        hash.add(span.shed_reason);
        hash.add(span.outcome);
        const CriticalPath &cp = span.critical_path;
        for (const double part : {cp.admission, cp.queue_wait, cp.compute,
                                  cp.mem_stall, cp.retry_backoff,
                                  cp.response})
            hash.add(part);
        hash.add(span.attempts.size());
        for (const tt::obs::SpanAttempt &attempt : span.attempts) {
            hash.add(attempt.task);
            hash.add(attempt.is_memory);
            hash.add(attempt.attempt);
            hash.add(attempt.worker);
            hash.add(attempt.start);
            hash.add(attempt.end);
            hash.add(attempt.failed);
            hash.add(attempt.backoff_seconds);
            hash.add(attempt.has_counters);
            hash.add(attempt.counters.llc_misses);
            hash.add(attempt.counters.cycles);
            hash.add(attempt.counters.stalled_cycles);
            hash.add(attempt.counters.instructions);
        }
    }
    return hash.value();
}

/** Hash of every field of every trace event, in order, and of the
 *  trace's drop count; doubles by their bits. */
std::uint64_t
traceDigest(const tt::exec::RunResult &result)
{
    FieldHash hash;
    hash.add(result.trace.size());
    for (const tt::obs::TaskEvent &event : result.trace) {
        hash.add(event.task);
        hash.add(event.pair);
        hash.add(event.phase);
        hash.add(event.is_memory);
        hash.add(event.worker);
        hash.add(event.start);
        hash.add(event.end);
        hash.add(event.mtl);
        hash.add(event.attempt);
        hash.add(event.has_counters);
        hash.add(event.counters.llc_misses);
        hash.add(event.counters.cycles);
        hash.add(event.counters.stalled_cycles);
        hash.add(event.counters.instructions);
    }
    hash.add(result.trace_dropped);
    return hash.value();
}

/** What a pinned run must reproduce. */
struct SpanPin
{
    std::size_t spans = 0;
    std::uint64_t dropped = 0;
    std::uint64_t digest = 0;
    std::uint64_t trace = 0; ///< traceDigest
};

SpanPin
pinOf(const tt::exec::RunResult &result)
{
    return {result.spans.size(), result.spans_dropped,
            spanDigest(result.spans), traceDigest(result)};
}

void
expectPin(const SpanPin &got, const SpanPin &want)
{
    EXPECT_EQ(got.spans, want.spans);
    EXPECT_EQ(got.dropped, want.dropped);
    EXPECT_EQ(got.digest, want.digest)
        << "digest 0x" << std::hex << got.digest;
    EXPECT_EQ(got.trace, want.trace)
        << "trace digest 0x" << std::hex << got.trace;
}

/**
 * Every field of every span of six deterministic sim runs, against
 * digests recorded when the engine still assembled spans while the
 * run was live: closed-loop dynamic scheduling with synthesized
 * counters over two phases and cross-pair edges, granted retries
 * with stalls, two runs that exhaust their retries, bursty open-loop
 * load with shedding and deadline misses, and a capped span store
 * whose trace is capped too. A second digest pins every field of
 * every trace event and the trace's drop count, recorded when each
 * context still wrote its events into a ring during the run.
 */
TEST(SpanPin, SimRunsKeepEverySpanField)
{
    {
        SCOPED_TRACE("closed-loop dynamic with counters");
        StreamProgramBuilder builder;
        for (int phase = 0; phase < 2; ++phase) {
            builder.beginPhase("p" + std::to_string(phase));
            builder.addPairs(40, [](int) {
                PairSpec spec;
                spec.bytes = 96 * 1024;
                spec.compute_cycles = 150000;
                return spec;
            });
        }
        for (int p = 0; p < 30; p += 3)
            builder.dependPairs(p, p + 7);
        const TaskGraph graph = std::move(builder).build();
        tt::obs::perf::SimCounterProvider counters;
        EngineOptions options;
        options.counters = &counters;
        tt::cpu::SimMachine machine(simConfig(4));
        tt::core::DynamicThrottlePolicy policy(4, 8);
        tt::simrt::SimRuntime sim(machine, graph, policy, options);
        const auto result = sim.run();
        ASSERT_FALSE(result.failed);
        ASSERT_TRUE(result.has_counters);
        expectPin(pinOf(result),
                  {80, 0, 0x864d501aca08e4baULL, 0x27cc0b3a417518b4ULL});
    }
    {
        SCOPED_TRACE("fault retries with stalls");
        const TaskGraph graph = simGraph(48);
        tt::fault::FaultConfig config;
        config.seed = 11;
        config.fail_p = 0.15;
        config.stall_p = 0.1;
        config.stall_seconds = 40e-6;
        const tt::fault::FaultPlan plan(config);
        EngineOptions options;
        options.fault_plan = &plan;
        options.max_task_retries = 5;
        options.retry_backoff_seconds = 20e-6;
        const auto result = runSim(graph, options, 2);
        ASSERT_FALSE(result.failed);
        ASSERT_GT(result.task_retries, 0);
        expectPin(pinOf(result),
                  {48, 0, 0xeb522d7664b08924ULL, 0xfa09d8367606f78aULL});
    }
    // Seed 24 exhausts a compute task's retries; seed 29 a memory
    // task's, and a second task fails terminally in the failed run.
    for (const auto &[seed, pin] :
         {std::pair<std::uint64_t, SpanPin>{
              24, {85, 0, 0x249abb85b740a52cULL, 0x26e8a6ce1d530982ULL}},
          std::pair<std::uint64_t, SpanPin>{
              29, {42, 0, 0xcda946f68bdfcb59ULL, 0x4e2f92edf9498096ULL}}}) {
        SCOPED_TRACE("retries exhausted, seed " + std::to_string(seed));
        const TaskGraph graph = simGraph(96);
        tt::fault::FaultConfig config;
        config.seed = seed;
        config.fail_p = 0.08;
        const tt::fault::FaultPlan plan(config);
        EngineOptions options;
        options.fault_plan = &plan;
        options.max_task_retries = 1;
        options.retry_backoff_seconds = 20e-6;
        const auto result = runSim(graph, options, 3);
        ASSERT_TRUE(result.failed);
        ASSERT_GE(result.task_failures, 1);
        ASSERT_TRUE(std::any_of(
            result.spans.begin(), result.spans.end(),
            [](const JobSpan &span) {
                return span.outcome == SpanOutcome::Failed;
            }));
        expectPin(pinOf(result), pin);
    }
    {
        SCOPED_TRACE("open-loop bursty, shedding and deadline misses");
        const TaskGraph graph = simGraph(96);
        tt::load::ArrivalConfig arrivals;
        arrivals.seed = 4;
        arrivals.process = tt::load::ArrivalProcess::Bursty;
        arrivals.rate = 2.0e4;
        arrivals.burst_period_seconds = 1e-3;
        arrivals.slo_seconds = 250e-6;
        arrivals.priority_levels = 3;
        const tt::load::ArrivalPlan plan =
            tt::load::buildArrivalPlan(arrivals, graph.pairCount());
        EngineOptions options;
        options.arrival_plan = &plan;
        options.admission.queue_cap = 6;
        options.admission.service_tml = 60e-6;
        options.admission.service_tql = 20e-6;
        const auto result = runSim(graph, options, 2);
        ASSERT_FALSE(result.failed);
        ASSERT_GT(result.jobs_shed, 0);
        ASSERT_GT(result.jobs_deadline_missed, 0);
        expectPin(pinOf(result),
                  {96, 0, 0x80e0e9dd30ba405eULL, 0xdb2f3c9989ad5b08ULL});
    }
    {
        SCOPED_TRACE("span capacity below the pair count");
        const TaskGraph graph = simGraph(40);
        tt::fault::FaultConfig config;
        config.seed = 3;
        config.fail_p = 0.1;
        const tt::fault::FaultPlan plan(config);
        EngineOptions options;
        options.fault_plan = &plan;
        options.span_capacity = 12;
        options.trace_capacity = 16; // of about 40 events per context
        options.retry_backoff_seconds = 20e-6;
        const auto result = runSim(graph, options, 2);
        ASSERT_FALSE(result.failed);
        ASSERT_GT(result.spans_dropped, 0u);
        ASSERT_GT(result.trace_dropped, 0u);
        expectPin(pinOf(result),
                  {12, 28, 0xf7a6603c55b5e5b0ULL, 0x048c5314c3784e33ULL});
    }
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
 * The whole exposition text of a registry holding every kind of
 * entry, pinned byte for byte: counters written by name and by slot,
 * an interned counter and histogram that were never written (absent,
 * as before their first write), gauges, and histograms written by
 * name and by slot with their own geometry.
 */
TEST(OpenMetrics, RendersEveryKindExactly)
{
    tt::MetricsRegistry metrics;
    metrics.add("runtime.jobs_admitted", 40);
    metrics.add(metrics.counterId("runtime.worker_parks"), 7);
    metrics.counterId("runtime.interned_only");
    metrics.set("9weird.gauge", 1.5);
    metrics.setMax("runtime.mem_in_flight_peak", 3.0);
    metrics.set("obs.rate", 0.000123456789);
    metrics.histogramId("runtime.unwritten_seconds");
    const tt::Histogram::Options depth{
        .min_value = 1.0, .growth = 2.0, .buckets = 24};
    const auto id = metrics.histogramId("runtime.ready_memory_depth", depth);
    for (int i = 0; i < 50; ++i) {
        const tt::MetricsRegistry::Observation sample{
            id, static_cast<double>(i % 9)};
        metrics.observe(std::span(&sample, 1));
    }
    for (int i = 1; i <= 100; ++i)
        metrics.observe("runtime.tm_seconds.mtl=2", 1e-6 * i);

    const std::string body =
        "# TYPE runtime_jobs_admitted counter\n"
        "runtime_jobs_admitted_total 40\n"
        "# TYPE runtime_worker_parks counter\n"
        "runtime_worker_parks_total 7\n"
        "# TYPE _9weird_gauge gauge\n"
        "_9weird_gauge 1.5\n"
        "# TYPE obs_rate gauge\n"
        "obs_rate 0.000123457\n"
        "# TYPE runtime_mem_in_flight_peak gauge\n"
        "runtime_mem_in_flight_peak 3\n"
        "# TYPE runtime_ready_memory_depth summary\n"
        "runtime_ready_memory_depth{quantile=\"0.5\"} 4.19048\n"
        "runtime_ready_memory_depth{quantile=\"0.9\"} 8\n"
        "runtime_ready_memory_depth{quantile=\"0.95\"} 8\n"
        "runtime_ready_memory_depth{quantile=\"0.99\"} 8\n"
        "runtime_ready_memory_depth_sum 190\n"
        "runtime_ready_memory_depth_count 50\n"
        "# TYPE runtime_tm_seconds_mtl_2 summary\n"
        "runtime_tm_seconds_mtl_2{quantile=\"0.5\"} 5.06415e-05\n"
        "runtime_tm_seconds_mtl_2{quantile=\"0.9\"} 9.01531e-05\n"
        "runtime_tm_seconds_mtl_2{quantile=\"0.95\"} 9.50766e-05\n"
        "runtime_tm_seconds_mtl_2{quantile=\"0.99\"} 9.90153e-05\n"
        "runtime_tm_seconds_mtl_2_sum 0.00505\n"
        "runtime_tm_seconds_mtl_2_count 100\n";
    EXPECT_EQ(tt::obs::openMetricsText(metrics, 0.0125),
              body +
                  "# TYPE obs_snapshot_time_seconds gauge\n"
                  "obs_snapshot_time_seconds 0.0125\n"
                  "# EOF\n");
    EXPECT_EQ(tt::obs::openMetricsText(metrics), body + "# EOF\n");
}

/**
 * A snapshot file sink whose write failed stays off: once the
 * directory it writes into appears, a later snapshot still writes
 * nothing, and the sink keeps reporting the failure.
 */
TEST(LiveFileSink, FailedWriteDisablesLaterSnapshots)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "live_file_sink_latch";
    fs::remove_all(dir);
    tt::MetricsRegistry metrics;
    metrics.add("obs.spans_dropped", 1);
    tt::obs::LiveFileSink sink((dir / "live.prom").string(), metrics);

    sink.snapshot(0.0); // the directory does not exist yet
    EXPECT_FALSE(sink.ok());
    ASSERT_TRUE(fs::create_directory(dir));
    sink.snapshot(1.0);
    EXPECT_FALSE(fs::exists(dir / "live.prom"));
    EXPECT_FALSE(fs::exists(dir / "live.prom.tmp"));
    EXPECT_EQ(sink.snapshots(), 0u);
    EXPECT_FALSE(sink.ok());
    fs::remove_all(dir);
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
