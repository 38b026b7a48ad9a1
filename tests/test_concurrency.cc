/**
 * @file
 * Tests of the lock-free hot-path primitives (util/concurrency) and
 * of the bound they jointly enforce through the engine: the Vyukov
 * MPMC ring (full/empty/wrap, no lost or duplicated elements under
 * contention), the MTL admission gate (never exceeds the bound
 * under racing admitters, never refuses with room), the per-worker
 * metric shards (interned
 * ids fold exactly while workers publish and intern), and the
 * end-to-end invariant that concurrent memory tasks never exceed the
 * MTL while `peak_mem_in_flight` reports the true maximum exactly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.hh"
#include "obs/metric_shards.hh"
#include "runtime/runtime.hh"
#include "stream/builder.hh"
#include "util/concurrency/mpmc_queue.hh"
#include "util/concurrency/mtl_gate.hh"
#include "util/stats.hh"

namespace {

using tt::Histogram;
using tt::obs::ShardedMetrics;
using tt::util::MpmcQueue;
using tt::util::MtlGate;

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(MpmcQueue<int>(1).capacity(), 2u);
    EXPECT_EQ(MpmcQueue<int>(2).capacity(), 2u);
    EXPECT_EQ(MpmcQueue<int>(3).capacity(), 4u);
    EXPECT_EQ(MpmcQueue<int>(64).capacity(), 64u);
    EXPECT_EQ(MpmcQueue<int>(65).capacity(), 128u);
}

TEST(MpmcQueue, EmptyPopFails)
{
    MpmcQueue<int> queue(4);
    int out = -1;
    EXPECT_FALSE(queue.tryPop(out));
    EXPECT_TRUE(queue.emptyApprox());
}

TEST(MpmcQueue, FullPushFailsAndFifoOrderHolds)
{
    MpmcQueue<int> queue(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(queue.tryPush(i));
    EXPECT_FALSE(queue.tryPush(99)); // full
    EXPECT_EQ(queue.sizeApprox(), 4u);
    EXPECT_EQ(queue.peakApprox(), 4u);
    for (int i = 0; i < 4; ++i) {
        int out = -1;
        ASSERT_TRUE(queue.tryPop(out));
        EXPECT_EQ(out, i); // single-threaded use is strict FIFO
    }
    int out = -1;
    EXPECT_FALSE(queue.tryPop(out));
}

TEST(MpmcQueue, WrapsManyLapsWithoutCorruption)
{
    // Push/pop far past capacity so every cell recycles its sequence
    // ticket several laps; values must come back intact and in order.
    MpmcQueue<int> queue(8);
    int next_in = 0;
    int next_out = 0;
    for (int lap = 0; lap < 100; ++lap) {
        for (int i = 0; i < 5; ++i)
            ASSERT_TRUE(queue.tryPush(next_in++));
        for (int i = 0; i < 5; ++i) {
            int out = -1;
            ASSERT_TRUE(queue.tryPop(out));
            ASSERT_EQ(out, next_out++);
        }
    }
    EXPECT_TRUE(queue.emptyApprox());
    EXPECT_EQ(queue.peakApprox(), 5u); // the most queued at once
}

TEST(MpmcQueue, ConcurrentProducersConsumersLoseNothing)
{
    // N producers push disjoint value ranges while N consumers drain;
    // every value must arrive exactly once. The ring is smaller than
    // the total volume so full/empty transitions happen constantly.
    constexpr int kThreads = 4;
    constexpr int kPerProducer = 20000;
    constexpr int kTotal = kThreads * kPerProducer;
    MpmcQueue<int> queue(64);
    std::vector<std::atomic<int>> seen(kTotal);
    for (auto &s : seen)
        s.store(0, std::memory_order_relaxed);
    std::atomic<int> drained{0};

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&queue, t] {
            for (int i = 0; i < kPerProducer; ++i) {
                const int value = t * kPerProducer + i;
                while (!queue.tryPush(value))
                    std::this_thread::yield();
            }
        });
        threads.emplace_back([&queue, &seen, &drained] {
            while (drained.load(std::memory_order_relaxed) < kTotal) {
                int out = -1;
                if (!queue.tryPop(out)) {
                    std::this_thread::yield();
                    continue;
                }
                seen[static_cast<std::size_t>(out)].fetch_add(
                    1, std::memory_order_relaxed);
                drained.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(drained.load(), kTotal);
    for (int v = 0; v < kTotal; ++v)
        ASSERT_EQ(seen[static_cast<std::size_t>(v)].load(), 1)
            << "value " << v << " lost or duplicated";
    EXPECT_TRUE(queue.emptyApprox());
}

TEST(MtlGate, SingleThreadBoundSemantics)
{
    MtlGate gate(4);
    EXPECT_FALSE(gate.tryAcquire(0, 0)); // bound 0 always rejects
    EXPECT_FALSE(gate.tryAcquire(0, -1));
    EXPECT_TRUE(gate.tryAcquire(0, 2));
    EXPECT_TRUE(gate.tryAcquire(1, 2));
    EXPECT_FALSE(gate.tryAcquire(2, 2)); // at bound
    EXPECT_EQ(gate.current(), 2);
    gate.release();
    EXPECT_EQ(gate.current(), 1);
    EXPECT_TRUE(gate.tryAcquire(3, 2)); // slot reopened
    gate.release();
    gate.release();
    EXPECT_EQ(gate.current(), 0);
    EXPECT_EQ(gate.peak(), 2); // exact when serialized
}

TEST(MtlGate, NeverExceedsBoundUnderContention)
{
    // T racing threads hammer acquire/release against a bound; an
    // independent atomic census of holders must never exceed it. A
    // bound of at least T always has room, so the exact gate then
    // refuses nothing however the threads interleave.
    constexpr int kThreads = 8;
    constexpr int kIterations = 20000;
    for (const long bound : {3L, long{kThreads}}) {
        MtlGate gate(kThreads);
        std::atomic<long> in_use{0};
        std::atomic<long> observed_max{0};
        std::atomic<long> admitted{0};
        std::atomic<bool> violated{false};

        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (int i = 0; i < kIterations; ++i) {
                    if (!gate.tryAcquire(static_cast<std::size_t>(t),
                                         bound)) {
                        std::this_thread::yield();
                        continue;
                    }
                    admitted.fetch_add(1, std::memory_order_relaxed);
                    const long now =
                        in_use.fetch_add(1, std::memory_order_seq_cst) + 1;
                    if (now > bound)
                        violated.store(true, std::memory_order_relaxed);
                    long prev =
                        observed_max.load(std::memory_order_relaxed);
                    while (prev < now &&
                           !observed_max.compare_exchange_weak(
                               prev, now, std::memory_order_relaxed)) {
                    }
                    in_use.fetch_sub(1, std::memory_order_seq_cst);
                    gate.release();
                }
            });
        }
        for (auto &thread : threads)
            thread.join();

        EXPECT_FALSE(violated.load()) << "more than " << bound
                                      << " holders observed at once";
        EXPECT_EQ(gate.current(), 0);
        EXPECT_GE(observed_max.load(), 1);
        EXPECT_GE(gate.peak(), observed_max.load());
        EXPECT_LE(gate.peak(), bound);
        EXPECT_EQ(gate.admitFailures() + admitted.load(), gate.folds());
        if (bound >= kThreads) {
            EXPECT_EQ(gate.admitFailures(), 0) << "bound " << bound;
        }
    }
}

/** The registry's copy of `name` equals `expected` exactly. */
void
expectSameHistogram(const tt::MetricsRegistry &registry,
                    const std::string &name, const Histogram &expected)
{
    const Histogram got = registry.histogram(name);
    ASSERT_EQ(got.count(), expected.count()) << name;
    EXPECT_EQ(got.sum(), expected.sum()) << name;
    EXPECT_EQ(got.min(), expected.min()) << name;
    EXPECT_EQ(got.max(), expected.max()) << name;
    ASSERT_EQ(got.bucketCount(), expected.bucketCount()) << name;
    for (int b = 0; b < expected.bucketCount(); ++b)
        EXPECT_EQ(got.bucketHits(b), expected.bucketHits(b))
            << name << " bucket " << b;
}

TEST(ShardedMetrics, InternedIdsFoldExactlyUnderConcurrency)
{
    // Four workers publish into their own shards while a fifth thread
    // folds without pause; halfway through, every worker interns the
    // same new name and publishes into it too. Samples are integers,
    // so sums are exact in any merge order: after the final fold the
    // registry must hold exactly the single-threaded totals.
    constexpr int kWorkers = 4;
    constexpr int kRounds = 20000;
    const Histogram::Options geometry{
        .min_value = 1.0, .growth = 2.0, .buckets = 16};
    const auto small = [](int w, int i) {
        return static_cast<double>(i % 7 + w);
    };
    const auto large = [](int w, int i) {
        return static_cast<double>((i * 37 + w) % 5000);
    };
    const auto late = [](int w, int i) {
        return static_cast<double>((i + w) % 100);
    };
    const auto ticks = [](int i) { return std::int64_t{1 + i % 3}; };

    tt::MetricsRegistry registry;
    ShardedMetrics shards(registry, kWorkers);
    const auto small_id = shards.histogram("test.small", geometry);
    const auto large_id = shards.histogram("test.large", geometry);
    const auto ticks_id = shards.counter("test.ticks");
    std::vector<std::uint32_t> late_ids(kWorkers);

    std::atomic<bool> publishing{true};
    std::thread folder([&] {
        while (publishing.load())
            shards.fold();
    });
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w)
        workers.emplace_back([&, w] {
            const auto shard = static_cast<std::size_t>(w);
            ShardedMetrics::HistogramId late_id;
            for (int i = 0; i < kRounds; ++i) {
                shards.observe(shard, small_id, small(w, i));
                shards.observe(shard, large_id, large(w, i));
                shards.add(shard, ticks_id, ticks(i));
                if (i == kRounds / 2) {
                    late_id = shards.histogram("test.late", geometry);
                    late_ids[shard] = late_id.index;
                }
                if (i >= kRounds / 2)
                    shards.observe(shard, late_id, late(w, i));
            }
        });
    for (auto &worker : workers)
        worker.join();
    publishing.store(false);
    folder.join();
    shards.fold();

    Histogram small_ref(geometry);
    Histogram large_ref(geometry);
    Histogram late_ref(geometry);
    std::int64_t ticks_ref = 0;
    for (int w = 0; w < kWorkers; ++w)
        for (int i = 0; i < kRounds; ++i) {
            small_ref.add(small(w, i));
            large_ref.add(large(w, i));
            ticks_ref += ticks(i);
            if (i >= kRounds / 2)
                late_ref.add(late(w, i));
        }
    for (int w = 1; w < kWorkers; ++w)
        EXPECT_EQ(late_ids[static_cast<std::size_t>(w)], late_ids[0])
            << "one name, one id";
    expectSameHistogram(registry, "test.small", small_ref);
    expectSameHistogram(registry, "test.large", large_ref);
    expectSameHistogram(registry, "test.late", late_ref);
    EXPECT_EQ(registry.counter("test.ticks"), ticks_ref);
}

TEST(ShardedMetrics, ConcurrentInternsKeepTheirOwnGeometry)
{
    // The ids live in the registry, and every interning grows every
    // shard to cover its id, so concurrent interns of different names
    // grow a shard in either order. Each slot must still take the
    // geometry its own name was interned with.
    constexpr int kWorkers = 4;
    constexpr int kNames = 8;
    tt::MetricsRegistry registry;
    ShardedMetrics shards(registry, kWorkers);
    const auto geometry = [](int w, int k) {
        return Histogram::Options{
            .min_value = 1.0, .growth = 2.0, .buckets = 4 + w * kNames + k};
    };
    const auto name = [](int w, int k) {
        return "test.g" + std::to_string(w) + "." + std::to_string(k);
    };
    std::atomic<bool> publishing{true};
    std::thread folder([&] {
        while (publishing.load())
            shards.fold();
    });
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w)
        workers.emplace_back([&, w] {
            for (int k = 0; k < kNames; ++k)
                shards.observe(static_cast<std::size_t>(w),
                               shards.histogram(name(w, k), geometry(w, k)),
                               static_cast<double>(k + 1));
        });
    for (auto &worker : workers)
        worker.join();
    publishing.store(false);
    folder.join();
    shards.fold();
    for (int w = 0; w < kWorkers; ++w)
        for (int k = 0; k < kNames; ++k) {
            const Histogram hist = registry.histogram(name(w, k));
            EXPECT_EQ(hist.count(), 1u) << name(w, k);
            EXPECT_EQ(hist.bucketCount(), geometry(w, k).buckets + 2)
                << name(w, k);
        }
}

TEST(ShardedMetrics, NoShardsPublishStraightToTheRegistry)
{
    // A single dispatcher's publications land in the registry at
    // once, with the interned geometry; interning alone creates no
    // registry entry, and a fold has nothing to add.
    tt::MetricsRegistry registry;
    ShardedMetrics direct(registry, 0);
    const Histogram::Options geometry{
        .min_value = 1.0, .growth = 2.0, .buckets = 8};
    const auto depth = direct.histogram("test.depth", geometry);
    const auto parks = direct.counter("test.parks");
    direct.histogram("test.unused");
    direct.observe(0, depth, 3.0);
    direct.observe(5, depth, 40.0);
    direct.add(2, parks, 2);
    EXPECT_EQ(registry.histogram("test.depth").count(), 2u);
    EXPECT_EQ(registry.histogram("test.depth").bucketCount(), 10);
    EXPECT_EQ(registry.counter("test.parks"), 2);
    EXPECT_FALSE(registry.hasHistogram("test.unused"));
    direct.fold();
    EXPECT_EQ(registry.histogram("test.depth").count(), 2u);
    EXPECT_EQ(registry.counter("test.parks"), 2);
}

/**
 * End-to-end MTL bound through the engine's lock-free admission: an
 * independent census inside the memory bodies must never observe
 * more than MTL concurrent memory tasks, and peak_mem_in_flight
 * (CAS-max over the folded shard sum at each successful admit) must
 * bracket that census — at least the max body overlap (admission
 * strictly contains the body window), never above the MTL any policy
 * window (audit trace) reports.
 */
TEST(EngineAdmission, PeakNeverExceedsMtlAndIsExact)
{
    for (const int mtl : {1, 2, 4}) {
        std::atomic<int> mem_in_flight{0};
        std::atomic<int> observed_max{0};
        std::atomic<bool> violated{false};
        tt::stream::StreamProgramBuilder builder;
        builder.beginPhase("p");
        builder.addPairs(64, [&](int) {
            tt::stream::PairSpec spec;
            spec.bytes = 64;
            spec.compute_cycles = 1;
            spec.host_memory = [&] {
                const int now = mem_in_flight.fetch_add(
                                    1, std::memory_order_seq_cst) +
                                1;
                if (now > mtl)
                    violated.store(true, std::memory_order_relaxed);
                int prev =
                    observed_max.load(std::memory_order_relaxed);
                while (prev < now &&
                       !observed_max.compare_exchange_weak(
                           prev, now, std::memory_order_relaxed)) {
                }
                mem_in_flight.fetch_sub(1, std::memory_order_seq_cst);
            };
            return spec;
        });
        const tt::stream::TaskGraph graph = std::move(builder).build();

        tt::core::StaticMtlPolicy policy(mtl, 8);
        tt::exec::EngineOptions opts;
        opts.threads = 8;
        opts.pin_affinity = false;
        tt::runtime::Runtime runtime(graph, policy, opts);
        const auto result = runtime.run();

        ASSERT_FALSE(result.failed);
        EXPECT_FALSE(violated.load())
            << "more than " << mtl
            << " concurrent memory tasks observed";
        // Every MTL window the audit trace reports bounds the peak.
        for (const auto &[when, window_mtl] : result.mtl_trace) {
            (void)when;
            EXPECT_LE(result.peak_mem_in_flight, window_mtl);
        }
        EXPECT_LE(result.peak_mem_in_flight, mtl);
        // Admission brackets the body: whenever N bodies overlapped,
        // N tasks were concurrently admitted, so the recorded peak
        // is at least the census max (and exact gate occupancy).
        EXPECT_GE(result.peak_mem_in_flight, observed_max.load());
        EXPECT_GE(result.peak_mem_in_flight, 1);
    }
}

} // namespace
