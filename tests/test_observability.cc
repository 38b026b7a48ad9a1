/**
 * @file
 * Tests of the runtime observability layer: the log-bucket
 * histogram, the thread-safe metrics registry, the shared Chrome
 * exporter, and the host runtime's end-to-end trace/metrics
 * production (including that per-task MTL annotations agree with the
 * policy's mtlTrace(), that the registry serves worker-shard metrics
 * while a run is live, and that the hot-path histograms keep their
 * names, counts and buckets).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dynamic_policy.hh"
#include "cpu/machine_config.hh"
#include "cpu/sim_machine.hh"
#include "load/arrival.hh"
#include "obs/chrome_trace.hh"
#include "obs/trace.hh"
#include "runtime/runtime.hh"
#include "simrt/sim_runtime.hh"
#include "util/stats.hh"
#include "workloads/synthetic.hh"

namespace {

using tt::Histogram;
using tt::MetricsRegistry;
using tt::core::DynamicThrottlePolicy;
using tt::obs::TaskEvent;
using tt::obs::TraceData;

TaskEvent
eventAt(double start, int task = 0, int worker = 0)
{
    TaskEvent event;
    event.task = task;
    event.worker = worker;
    event.start = start;
    event.end = start + 1.0;
    return event;
}

TEST(HistogramTest, BucketBoundariesAreExact)
{
    Histogram hist(Histogram::Options{
        .min_value = 1.0, .growth = 2.0, .buckets = 4});
    // Slots: [underflow) [1,2) [2,4) [4,8) [8,16) [overflow).
    EXPECT_EQ(hist.bucketCount(), 6);
    EXPECT_EQ(hist.bucketIndex(0.5), 0);
    EXPECT_EQ(hist.bucketIndex(1.0), 1);
    EXPECT_EQ(hist.bucketIndex(1.999), 1);
    EXPECT_EQ(hist.bucketIndex(2.0), 2);
    EXPECT_EQ(hist.bucketIndex(7.999), 3);
    EXPECT_EQ(hist.bucketIndex(8.0), 4);
    EXPECT_EQ(hist.bucketIndex(16.0), 5);
    EXPECT_EQ(hist.bucketIndex(1e9), 5);

    EXPECT_DOUBLE_EQ(hist.bucketLowerBound(0), 0.0);
    EXPECT_DOUBLE_EQ(hist.bucketUpperBound(0), 1.0);
    EXPECT_DOUBLE_EQ(hist.bucketLowerBound(2), 2.0);
    EXPECT_DOUBLE_EQ(hist.bucketUpperBound(2), 4.0);
    EXPECT_TRUE(std::isinf(hist.bucketUpperBound(5)));
}

TEST(HistogramTest, CountsMomentsAndHits)
{
    Histogram hist(Histogram::Options{
        .min_value = 1.0, .growth = 2.0, .buckets = 4});
    for (double x : {0.5, 1.5, 1.5, 3.0, 20.0})
        hist.add(x);
    EXPECT_EQ(hist.count(), 5u);
    EXPECT_EQ(hist.bucketHits(0), 1u);
    EXPECT_EQ(hist.bucketHits(1), 2u);
    EXPECT_EQ(hist.bucketHits(2), 1u);
    EXPECT_EQ(hist.bucketHits(5), 1u);
    EXPECT_DOUBLE_EQ(hist.min(), 0.5);
    EXPECT_DOUBLE_EQ(hist.max(), 20.0);
    EXPECT_NEAR(hist.mean(), (0.5 + 1.5 + 1.5 + 3.0 + 20.0) / 5.0,
                1e-12);
}

TEST(HistogramTest, QuantilesAreMonotoneAndClamped)
{
    Histogram hist;
    for (int i = 1; i <= 1000; ++i)
        hist.add(i * 1e-6); // 1..1000 us
    double prev = 0.0;
    for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        const double value = hist.quantile(q);
        EXPECT_GE(value, prev);
        EXPECT_GE(value, hist.min());
        EXPECT_LE(value, hist.max());
        prev = value;
    }
    // The median of 1..1000 us lands within its x2 bucket.
    EXPECT_GT(hist.quantile(0.5), 250e-6);
    EXPECT_LT(hist.quantile(0.5), 1024e-6);
    EXPECT_EQ(hist.quantile(0.0), hist.min());
    EXPECT_EQ(hist.quantile(1.0), hist.max());
}

TEST(HistogramTest, MergeAddsBucketsAndMoments)
{
    Histogram a;
    Histogram b;
    for (int i = 0; i < 100; ++i) {
        a.add(1e-6);
        b.add(1e-3);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_DOUBLE_EQ(a.min(), 1e-6);
    EXPECT_DOUBLE_EQ(a.max(), 1e-3);
    EXPECT_NEAR(a.mean(), (100 * 1e-6 + 100 * 1e-3) / 200.0, 1e-15);
    EXPECT_EQ(a.bucketHits(a.bucketIndex(1e-6)), 100u);
    EXPECT_EQ(a.bucketHits(a.bucketIndex(1e-3)), 100u);
}

TEST(MetricsRegistryTest, CountersGaugesHistograms)
{
    MetricsRegistry metrics;
    EXPECT_TRUE(metrics.empty());
    metrics.add("a.counter");
    metrics.add("a.counter", 9);
    metrics.set("a.gauge", 2.5);
    metrics.setMax("a.peak", 3.0);
    metrics.setMax("a.peak", 1.0); // lower: ignored
    metrics.observe("a.hist", 1e-6);
    metrics.observe("a.hist", 2e-6);

    EXPECT_EQ(metrics.counter("a.counter"), 10);
    EXPECT_EQ(metrics.counter("missing"), 0);
    EXPECT_DOUBLE_EQ(metrics.gauge("a.gauge"), 2.5);
    EXPECT_DOUBLE_EQ(metrics.gauge("a.peak"), 3.0);
    EXPECT_DOUBLE_EQ(metrics.gauge("missing", -1.0), -1.0);
    EXPECT_EQ(metrics.histogram("a.hist").count(), 2u);
    EXPECT_TRUE(metrics.hasCounter("a.counter"));
    EXPECT_FALSE(metrics.hasCounter("a.gauge"));
    EXPECT_FALSE(metrics.empty());

    metrics.clear();
    EXPECT_TRUE(metrics.empty());
}

/**
 * Interned slots: a name enters the registry only at its first write,
 * slot and by-name writes reach the same metric, the interned
 * geometry is the one a first slot write creates, and clear() leaves
 * no slot pointing at a dropped metric.
 */
TEST(MetricsRegistryTest, InternedSlotsActAsTheirNames)
{
    MetricsRegistry metrics;
    const auto hits = metrics.counterId("a.hits");
    EXPECT_EQ(metrics.counterId("a.hits").index, hits.index);
    const Histogram::Options depth{
        .min_value = 1.0, .growth = 2.0, .buckets = 8};
    const auto queue = metrics.histogramId("a.queue", depth);
    EXPECT_TRUE(metrics.empty()); // interning alone publishes nothing

    metrics.add(hits, 2);
    metrics.add("a.hits", 3);
    const MetricsRegistry::Observation batch[] = {{queue, 3.0},
                                                  {queue, 40.0}};
    metrics.observe(batch);
    EXPECT_EQ(metrics.counterNames(), std::vector<std::string>{"a.hits"});
    EXPECT_EQ(metrics.counter("a.hits"), 5);
    const Histogram hist = metrics.histogram("a.queue");
    EXPECT_EQ(hist.count(), 2u);
    EXPECT_EQ(hist.bucketCount(), depth.buckets + 2);
    EXPECT_DOUBLE_EQ(hist.max(), 40.0);

    metrics.clear();
    EXPECT_TRUE(metrics.empty());
    metrics.add(hits);
    metrics.observe(batch);
    EXPECT_EQ(metrics.counter("a.hits"), 1);
    EXPECT_EQ(metrics.histogram("a.queue").count(), 2u);
    EXPECT_EQ(metrics.histogram("a.queue").bucketCount(),
              depth.buckets + 2);
}

TEST(MetricsRegistryTest, ConcurrentPublishersLoseNothing)
{
    // Part of the "concurrency" ctest label exercised under TSan.
    MetricsRegistry metrics;
    const int threads = 8;
    const int iterations = 10000;
    std::vector<std::thread> publishers;
    publishers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        publishers.emplace_back([&metrics, t] {
            for (int i = 0; i < iterations; ++i) {
                metrics.add("shared.counter");
                metrics.observe("shared.hist",
                                static_cast<double>(i + 1) * 1e-6);
                metrics.setMax("shared.peak",
                               static_cast<double>(t * iterations + i));
            }
        });
    }
    for (auto &publisher : publishers)
        publisher.join();

    EXPECT_EQ(metrics.counter("shared.counter"),
              static_cast<std::int64_t>(threads) * iterations);
    EXPECT_EQ(metrics.histogram("shared.hist").count(),
              static_cast<std::size_t>(threads) * iterations);
    EXPECT_DOUBLE_EQ(metrics.gauge("shared.peak"),
                     static_cast<double>(threads * iterations - 1));
}

TEST(MetricsRegistryTest, JsonAndSummaryListEveryMetric)
{
    MetricsRegistry metrics;
    metrics.add("policy.probe_pairs", 7);
    metrics.set("runtime.makespan_seconds", 0.25);
    metrics.observe("runtime.tm_seconds.mtl=2", 1e-4);

    std::ostringstream os;
    metrics.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"policy.probe_pairs\": 7"),
              std::string::npos);
    EXPECT_NE(json.find("runtime.makespan_seconds"),
              std::string::npos);
    EXPECT_NE(json.find("runtime.tm_seconds.mtl=2"),
              std::string::npos);
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);
    // Balanced braces/brackets (structural sanity).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));

    const std::string table = metrics.summaryTable();
    EXPECT_NE(table.find("policy.probe_pairs"), std::string::npos);
    EXPECT_NE(table.find("runtime.makespan_seconds"),
              std::string::npos);
    EXPECT_NE(table.find("runtime.tm_seconds.mtl=2"),
              std::string::npos);
}

TEST(ChromeTrace, RendersEventsCounterTrackAndMetadata)
{
    TraceData data;
    TaskEvent memory = eventAt(0.0, 0, 0);
    memory.is_memory = true;
    memory.pair = 0;
    memory.phase = 0;
    memory.mtl = 2;
    TaskEvent compute = eventAt(1.0, 1, 1);
    compute.pair = 0;
    compute.phase = 0;
    compute.mtl = 2;
    data.events = {memory, compute};
    data.mtl_trace = {{0.0, 4}, {0.5, 2}};
    data.phase_names = {"alpha"};

    const std::string json = tt::obs::chromeTraceString(data);
    auto count = [&json](const std::string &needle) {
        std::size_t hits = 0;
        for (std::size_t pos = json.find(needle);
             pos != std::string::npos;
             pos = json.find(needle, pos + needle.size()))
            ++hits;
        return hits;
    };
    EXPECT_EQ(count("\"ph\":\"X\""), 2u);
    EXPECT_EQ(count("\"cat\":\"memory\""), 1u);
    EXPECT_EQ(count("\"cat\":\"compute\""), 1u);
    EXPECT_EQ(count("\"name\":\"MTL\""), 2u);
    EXPECT_EQ(count("thread_name"), 2u);
    EXPECT_EQ(count("\"phase\":\"alpha\""), 2u);
    EXPECT_EQ(count("{"), count("}"));
}

/** The policy's MTL in force at time t per its transition log. */
int
mtlAt(const std::vector<std::pair<double, int>> &mtl_trace, double t)
{
    int mtl = 0;
    for (const auto &[time, value] : mtl_trace) {
        if (time > t)
            break;
        mtl = value;
    }
    return mtl;
}

TEST(HostObservability, TraceCoversEveryTaskAndMatchesMtlTrace)
{
    // Single worker: dispatch order is deterministic, so every
    // recorded event's MTL annotation must equal the policy's
    // mtlTrace() step function evaluated at the event's start.
    tt::workloads::SyntheticParams params;
    params.pairs = 48;
    params.footprint_bytes = 16 * 1024;
    auto workload = tt::workloads::buildSyntheticHost(params, 2);

    DynamicThrottlePolicy policy(2, 4);
    tt::MetricsRegistry metrics;
    policy.bindMetrics(&metrics);
    tt::exec::EngineOptions options;
    options.threads = 1;
    options.pin_affinity = false;
    options.metrics = &metrics;
    tt::runtime::Runtime runtime(workload.graph, policy, options);
    const auto result = runtime.run();

    ASSERT_EQ(result.trace.size(),
              static_cast<std::size_t>(workload.graph.taskCount()));
    EXPECT_EQ(result.trace_dropped, 0u);
    for (std::size_t i = 1; i < result.trace.size(); ++i)
        EXPECT_LE(result.trace[i - 1].start, result.trace[i].start);
    for (const auto &event : result.trace) {
        EXPECT_EQ(event.worker, 0);
        EXPECT_EQ(event.mtl, mtlAt(result.mtl_trace, event.start))
            << "task " << event.task << " at t=" << event.start;
    }

    // The metrics registry saw both the policy and runtime series.
    EXPECT_EQ(metrics.counter("runtime.tasks_done"),
              workload.graph.taskCount());
    EXPECT_GE(metrics.counter("policy.selections"), 1);
    EXPECT_TRUE(metrics.hasGauge("policy.mtl"));
    bool saw_tm_histogram = false;
    for (const auto &name : metrics.histogramNames())
        saw_tm_histogram |=
            name.rfind("runtime.tm_seconds.mtl=", 0) == 0;
    EXPECT_TRUE(saw_tm_histogram);

    // And the shared exporter renders the host trace.
    const auto data =
        tt::exec::toTraceData(workload.graph, result);
    const std::string json = tt::obs::chromeTraceString(data);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"MTL\""), std::string::npos);
}

TEST(HostObservability, TraceCapacityCapDropsOldestNotNewest)
{
    tt::workloads::SyntheticParams params;
    params.pairs = 32;
    params.footprint_bytes = 16 * 1024;
    auto workload = tt::workloads::buildSyntheticHost(params, 1);

    tt::core::ConventionalPolicy policy(1);
    tt::exec::EngineOptions options;
    options.threads = 1;
    options.pin_affinity = false;
    options.trace_capacity = 8;
    tt::runtime::Runtime runtime(workload.graph, policy, options);
    const auto result = runtime.run();

    EXPECT_EQ(result.trace.size(), 8u);
    EXPECT_EQ(result.trace_dropped,
              static_cast<std::uint64_t>(
                  workload.graph.taskCount() - 8));
    // The survivors are the chronologically latest events.
    double max_start = 0.0;
    for (const auto &event : result.trace)
        max_start = std::max(max_start, event.start);
    EXPECT_GT(max_start, 0.0);
}

/**
 * The watchdog's crash-dump hooks flush the registry and in-process
 * readers poll it, so on worker threads the engine must fold the
 * per-worker metric shards while the run is live, with no file sink
 * or time series to do it: a poller reading the registry before the
 * plan's last arrival (so before the drain fold) sees memory-task
 * timings.
 */
TEST(HostObservability, RegistryServesShardMetricsMidRun)
{
    tt::workloads::SyntheticParams params;
    params.pairs = 200;
    params.footprint_bytes = 16 * 1024;
    auto workload = tt::workloads::buildSyntheticHost(params, 2);

    tt::load::ArrivalConfig arrivals;
    arrivals.seed = 5;
    arrivals.rate = 1000.0; // the plan spans about 0.2 s
    const tt::load::ArrivalPlan plan = tt::load::buildArrivalPlan(
        arrivals, workload.graph.pairCount());
    const double last_arrival = plan.jobs.back().arrival_seconds;

    tt::MetricsRegistry metrics;
    tt::core::StaticMtlPolicy policy(2, 2);
    tt::exec::EngineOptions options;
    options.threads = 2;
    options.pin_affinity = false;
    options.metrics = &metrics;
    options.arrival_plan = &plan;
    options.live_interval_seconds = 1e-3;

    // Each poll: seconds since before the run started, taken after
    // the read, and the tm samples the registry held. The engine
    // clock starts later, so a poll stamped before `last_arrival`
    // read the registry before the run could drain.
    using Clock = std::chrono::steady_clock;
    std::vector<std::pair<double, std::size_t>> polls;
    std::atomic<bool> done{false};
    const Clock::time_point start = Clock::now();
    std::thread poller([&] {
        while (!done.load()) {
            std::size_t samples = 0;
            for (const std::string &name : metrics.histogramNames())
                if (name.rfind("runtime.tm_seconds.mtl=", 0) == 0)
                    samples += metrics.histogram(name).count();
            polls.emplace_back(
                std::chrono::duration<double>(Clock::now() - start)
                    .count(),
                samples);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    tt::runtime::Runtime runtime(workload.graph, policy, options);
    const auto result = runtime.run();
    done.store(true);
    poller.join();
    ASSERT_FALSE(result.failed) << result.failure_reason;

    int early_polls = 0;
    std::size_t early_samples = 0;
    for (const auto &[seconds, samples] : polls) {
        if (seconds >= last_arrival)
            break;
        ++early_polls;
        early_samples = samples;
    }
    ASSERT_GT(early_polls, 0);
    EXPECT_GT(early_samples, 0u)
        << early_polls << " polls before the last arrival at "
        << last_arrival << " s saw no runtime.tm_seconds sample";
}

/** Every `runtime.*` histogram as "name count bucket:hits ...", in
 *  name order. */
std::vector<std::string>
runtimeHistogramDigest(const MetricsRegistry &metrics)
{
    std::vector<std::string> digest;
    for (const std::string &name : metrics.histogramNames()) {
        if (name.rfind("runtime.", 0) != 0)
            continue;
        const Histogram hist = metrics.histogram(name);
        std::string line = name + " " + std::to_string(hist.count());
        for (int b = 0; b < hist.bucketCount(); ++b)
            if (hist.bucketHits(b) != 0)
                line += " " + std::to_string(b) + ":" +
                        std::to_string(hist.bucketHits(b));
        digest.push_back(line);
    }
    return digest;
}

/** Samples in every histogram whose name starts with `prefix`. */
std::size_t
countWithPrefix(const MetricsRegistry &metrics, const std::string &prefix)
{
    std::size_t count = 0;
    for (const std::string &name : metrics.histogramNames())
        if (name.rfind(prefix, 0) == 0)
            count += metrics.histogram(name).count();
    return count;
}

/**
 * A deterministic open-loop sim run publishes every hot histogram:
 * both ready depths, response and queue-wait times, and T_m/T_c at
 * each MTL the SLO-aware dynamic policy visits. A single dispatcher
 * publishes straight into the registry, through interned ids, so the
 * names, counts and bucket hits must match the values recorded when
 * every publication still built its name.
 */
TEST(HotMetrics, SimRunPinsEveryRuntimeHistogram)
{
    const auto config = tt::cpu::MachineConfig::i7_860_1dimm();
    tt::workloads::SyntheticParams params;
    params.tm1_over_tc = 0.5;
    params.footprint_bytes = 2048;
    params.pairs = 300;
    const auto graph = tt::workloads::buildSyntheticSim(config, params);

    tt::load::ArrivalConfig arrivals;
    arrivals.seed = 9;
    arrivals.process = tt::load::ArrivalProcess::Bursty;
    arrivals.rate = 7.0e5;
    arrivals.burst_period_seconds = 400.0 / arrivals.rate;
    arrivals.slo_seconds = 10e-6;
    const tt::load::ArrivalPlan plan =
        tt::load::buildArrivalPlan(arrivals, params.pairs);

    MetricsRegistry metrics;
    tt::exec::EngineOptions options;
    options.metrics = &metrics;
    options.arrival_plan = &plan;
    options.admission.queue_cap = 16;
    options.admission.service_tml = 0.35e-6;
    options.admission.service_tql = 0.17e-6;
    options.admission.service_tc = 1.0e-6;
    DynamicThrottlePolicy policy(config.contexts(), 16);
    policy.setSloAware();
    policy.bindMetrics(&metrics);
    tt::cpu::SimMachine machine(config);
    tt::simrt::SimRuntime runtime(machine, graph, policy, options);
    const auto result = runtime.run();
    ASSERT_FALSE(result.failed) << result.failure_reason;

    const std::vector<std::string> expected{
        "runtime.queue_wait_seconds 286 0:193 1:55 2:29 3:9",
        "runtime.ready_compute_depth 572 0:572",
        "runtime.ready_memory_depth 572 0:180 1:109 2:149 3:107 4:27",
        "runtime.response_seconds 286 1:134 2:121 3:31",
        "runtime.tc_seconds.mtl=1 37 10:37",
        "runtime.tc_seconds.mtl=2 230 10:230",
        "runtime.tc_seconds.mtl=4 19 10:19",
        "runtime.tm_seconds.mtl=1 37 9:21 10:16",
        "runtime.tm_seconds.mtl=2 230 9:27 10:202 11:1",
        "runtime.tm_seconds.mtl=4 19 9:4 10:15",
    };
    EXPECT_EQ(runtimeHistogramDigest(metrics), expected);
}

/**
 * Four workers: every completion observes both ready depths once, and
 * every pair its T_m and T_c under the MTL it ran at, whichever
 * worker interned that MTL's ids first.
 */
TEST(HotMetrics, HostCountsCoverEveryTaskAndPair)
{
    tt::workloads::SyntheticParams params;
    params.pairs = 400;
    params.footprint_bytes = 16 * 1024;
    auto workload = tt::workloads::buildSyntheticHost(params, 4);

    MetricsRegistry metrics;
    DynamicThrottlePolicy policy(4, 4);
    policy.bindMetrics(&metrics);
    tt::exec::EngineOptions options;
    options.threads = 4;
    options.pin_affinity = false;
    options.metrics = &metrics;
    tt::runtime::Runtime runtime(workload.graph, policy, options);
    const auto result = runtime.run();
    ASSERT_FALSE(result.failed) << result.failure_reason;

    const auto tasks =
        static_cast<std::size_t>(workload.graph.taskCount());
    const auto pairs =
        static_cast<std::size_t>(workload.graph.pairCount());
    EXPECT_EQ(metrics.histogram("runtime.ready_memory_depth").count(),
              tasks);
    EXPECT_EQ(metrics.histogram("runtime.ready_compute_depth").count(),
              tasks);
    EXPECT_EQ(countWithPrefix(metrics, "runtime.tm_seconds.mtl="), pairs);
    EXPECT_EQ(countWithPrefix(metrics, "runtime.tc_seconds.mtl="), pairs);
    EXPECT_EQ(result.samples.size(), pairs);
}

/**
 * MTLs are the policy's, not bounded by the worker count: a static
 * MTL of 6 on one and on two workers still publishes T_m and T_c
 * under `mtl=6`.
 */
TEST(HotMetrics, MtlAboveTheContextCountGetsItsIds)
{
    tt::workloads::SyntheticParams params;
    params.pairs = 64;
    params.footprint_bytes = 16 * 1024;
    auto workload = tt::workloads::buildSyntheticHost(params, 2);
    const auto pairs =
        static_cast<std::size_t>(workload.graph.pairCount());
    for (const int threads : {1, 2}) {
        MetricsRegistry metrics;
        tt::core::StaticMtlPolicy policy(6, 6);
        tt::exec::EngineOptions options;
        options.threads = threads;
        options.pin_affinity = false;
        options.metrics = &metrics;
        tt::runtime::Runtime runtime(workload.graph, policy, options);
        const auto result = runtime.run();
        ASSERT_FALSE(result.failed) << result.failure_reason;
        EXPECT_EQ(metrics.histogram("runtime.tm_seconds.mtl=6").count(),
                  pairs)
            << threads << " workers";
        EXPECT_EQ(metrics.histogram("runtime.tc_seconds.mtl=6").count(),
                  pairs)
            << threads << " workers";
        EXPECT_EQ(countWithPrefix(metrics, "runtime.tm_seconds.mtl="),
                  pairs);
    }
}

} // namespace
