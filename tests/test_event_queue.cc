/**
 * @file
 * Unit tests of the discrete-event kernel: ordering, FIFO tie
 * breaking across inline and boxed callables and across the heap and
 * the FIFO lanes, cancellation, re-entrant scheduling and the runaway
 * budget.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <numeric>
#include <random>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/ticks.hh"

namespace {

using tt::sim::Callback;
using tt::sim::EventId;
using tt::sim::EventQueue;
using tt::sim::Lane;
using tt::sim::Tick;

/** How the queue stores a test event's callable. */
enum class Storage
{
    kInline,      ///< small trivially copyable lambda
    kStdFunction, ///< boxed: std::function is not trivially copyable
    kLargeCapture ///< boxed: capture larger than the inline bytes
};

/** Schedule `body` (a small lambda) at `when`, stored as `storage`. */
template <class Body>
EventId
scheduleAs(EventQueue &q, Tick when, Storage storage, Body body)
{
    static_assert(Callback::kInline<Body>);
    switch (storage) {
    case Storage::kInline:
        return q.schedule(when, body);
    case Storage::kStdFunction:
        return q.schedule(when, std::function<void()>(body));
    case Storage::kLargeCapture: {
        const std::array<std::uint64_t, 4> pad{};
        auto large = [body, pad] { body(); };
        static_assert(!Callback::kInline<decltype(large)>);
        return q.schedule(when, large);
    }
    }
    return 0;
}

/** Storage of the i-th event: `pattern` repeated. */
Storage
storageOf(const std::vector<Storage> &pattern, int i)
{
    return pattern[static_cast<std::size_t>(i) % pattern.size()];
}

const std::vector<Storage> kAllInline{Storage::kInline};
const std::vector<Storage> kInterleaved{
    Storage::kInline, Storage::kStdFunction, Storage::kInline,
    Storage::kLargeCapture};
const std::vector<Storage> kAllLarge{Storage::kLargeCapture};

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

/** Parameter: the storage pattern of the events under test. */
class EventQueueStorage
    : public ::testing::TestWithParam<std::vector<Storage>>
{
};

TEST_P(EventQueueStorage, FifoAmongEqualTicks)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        scheduleAs(q, 5, storageOf(GetParam(), i),
                   [&order, i] { order.push_back(i); });
    q.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(q.executed(), 16u);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&] {
        q.scheduleIn(50, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, DescheduleSkipsEvent)
{
    EventQueue q;
    bool ran = false;
    const auto id = q.schedule(10, [&] { ran = true; });
    q.deschedule(id);
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executed(), 0u);
}

TEST_P(EventQueueStorage, DescheduleOneOfMany)
{
    EventQueue q;
    std::vector<int> order;
    // Kinds mixed at one tick: the descheduled event sits between
    // survivors of every storage in the pattern.
    std::vector<EventId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(scheduleAs(q, 7, storageOf(GetParam(), i),
                                 [&order, i] { order.push_back(i); }));
    q.schedule(2, [&] { order.push_back(-1); });
    q.deschedule(ids[5]);
    q.deschedule(ids[5]); // twice is the same as once
    q.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 6, 7}));
    EXPECT_EQ(q.executed(), 8u);

    // Descheduling events that already ran changes nothing: a later
    // event still runs, at its tick, and counts.
    q.deschedule(ids[0]);
    q.deschedule(ids[5]);
    scheduleAs(q, 9, storageOf(GetParam(), 1),
               [&order] { order.push_back(9); });
    q.run();
    EXPECT_EQ(order.back(), 9);
    EXPECT_EQ(q.now(), 9u);
    EXPECT_EQ(q.executed(), 9u);
}

// kInterleaved deschedules a std::function, kAllLarge a large capture.
INSTANTIATE_TEST_SUITE_P(Kernel, EventQueueStorage,
                         ::testing::Values(kAllInline, kInterleaved,
                                           kAllLarge));

TEST(EventQueue, ReentrantSchedulingAtSameTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(1);
        q.schedule(10, [&] { order.push_back(2); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    EventQueue q;
    EXPECT_FALSE(q.runOne());
    q.schedule(1, [] {});
    EXPECT_TRUE(q.runOne());
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue q;
    for (int i = 0; i < 10; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    q.run();
    EXPECT_EQ(q.executed(), 10u);
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue q;
    q.schedule(100, [&q] {
        EXPECT_DEATH(q.schedule(50, [] {}), "past");
    });
    q.run();
}

TEST(EventQueueDeath, RunawayBudgetPanics)
{
    EventQueue q;
    // A self-perpetuating event never drains; the budget must trip.
    std::function<void()> loop = [&] { q.scheduleIn(1, loop); };
    q.schedule(0, loop);
    EXPECT_DEATH(q.run(1000), "budget");
}

/** A lane owner that logs the arguments its events run with. */
struct Sink
{
    std::vector<std::uint32_t> args;

    void fire(std::uint32_t arg) { args.push_back(arg); }
};

/**
 * A seeded random mix of heap events and events on three lanes. Each
 * event is tagged with its position in the schedule sequence; every
 * handler checks it runs at its tick, logs its tag and may schedule
 * more events from inside the run.
 */
class LaneMix
{
  public:
    static constexpr std::size_t kBudget = 4000;

    explicit LaneMix(std::uint32_t seed) : rng_(seed)
    {
        for (Lane &lane : lanes_)
            lane = queue_.addLane<LaneMix, &LaneMix::onLane>(this);
    }

    /** Schedule one event on a random lane or on the heap. */
    void
    scheduleRandom()
    {
        const auto tag = static_cast<std::uint32_t>(ticks_.size());
        const int kind = draw(0, 3);
        Tick when = 0;
        if (kind == 3) {
            when = queue_.now() + static_cast<Tick>(draw(0, 6));
            queue_.schedule(when, [this, tag] { ran(tag); });
        } else {
            // Small steps over the lane's last tick: many events share
            // a tick with the other lanes and the heap.
            Tick &last = last_[static_cast<std::size_t>(kind)];
            when = std::max(queue_.now(), last) +
                   static_cast<Tick>(draw(0, 2));
            last = when;
            queue_.schedule(lanes_[static_cast<std::size_t>(kind)], when,
                            tag);
        }
        ticks_.push_back(when);
    }

    EventQueue &queue() { return queue_; }
    const std::vector<std::uint32_t> &order() const { return order_; }

    /** Tags sorted by (tick, schedule sequence). */
    std::vector<std::uint32_t>
    referenceOrder() const
    {
        std::vector<std::uint32_t> tags(ticks_.size());
        std::iota(tags.begin(), tags.end(), 0u);
        std::stable_sort(tags.begin(), tags.end(),
                         [this](std::uint32_t a, std::uint32_t b) {
                             return ticks_[a] < ticks_[b];
                         });
        return tags;
    }

  private:
    void onLane(std::uint32_t tag) { ran(tag); }

    void
    ran(std::uint32_t tag)
    {
        EXPECT_EQ(queue_.now(), ticks_[tag]) << "event " << tag;
        order_.push_back(tag);
        for (int n = draw(0, 2); n > 0 && ticks_.size() < kBudget; --n)
            scheduleRandom();
    }

    int
    draw(int lo, int hi)
    {
        return std::uniform_int_distribution<int>(lo, hi)(rng_);
    }

    EventQueue queue_;
    std::mt19937 rng_;
    std::array<Lane, 3> lanes_;
    std::array<Tick, 3> last_{};
    std::vector<Tick> ticks_; ///< by tag
    std::vector<std::uint32_t> order_;
};

TEST(EventQueueLanes, MergeWithHeapInTickThenSequenceOrder)
{
    for (const std::uint32_t seed : {1u, 7u, 20101204u}) {
        LaneMix mix(seed);
        for (int i = 0; i < 200; ++i)
            mix.scheduleRandom();
        mix.queue().run();
        EXPECT_EQ(mix.order(), mix.referenceOrder()) << "seed " << seed;
        EXPECT_GT(mix.order().size(), 1000u) << "seed " << seed;
        EXPECT_EQ(mix.queue().executed(), mix.order().size());
        EXPECT_TRUE(mix.queue().empty());
    }
}

TEST(EventQueueLanes, LaneEventsArePending)
{
    EventQueue q;
    Sink sink;
    const Lane lane = q.addLane<Sink, &Sink::fire>(&sink);
    EXPECT_TRUE(q.empty());
    q.schedule(lane, 5, 7);
    EXPECT_FALSE(q.empty());
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(sink.args, (std::vector<std::uint32_t>{7}));
    EXPECT_EQ(q.now(), 5u);
    EXPECT_EQ(q.executed(), 1u);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueueLanes, RingGrowthKeepsFifoOrder)
{
    EventQueue q;
    Sink sink;
    const Lane lane = q.addLane<Sink, &Sink::fire>(&sink);
    // Wrap the ring before it grows: drain half, then overfill.
    for (std::uint32_t i = 0; i < 12; ++i)
        q.schedule(lane, i, i);
    for (int i = 0; i < 6; ++i)
        q.runOne();
    for (std::uint32_t i = 12; i < 100; ++i)
        q.schedule(lane, i, i);
    q.run();
    std::vector<std::uint32_t> expected(100);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(sink.args, expected);
}

TEST(EventQueueLanes, DescheduleCancelsOnlyTheHeapTimer)
{
    EventQueue q;
    Sink sink;
    const Lane lane = q.addLane<Sink, &Sink::fire>(&sink);
    q.schedule(lane, 10, 0);
    const EventId timer = q.schedule(10, [&sink] { sink.fire(100); });
    q.schedule(lane, 10, 1);
    q.schedule(15, [&sink] { sink.fire(101); });
    q.schedule(lane, 20, 2);
    q.deschedule(timer);
    q.run();
    EXPECT_EQ(sink.args, (std::vector<std::uint32_t>{0, 1, 101, 2}));
    EXPECT_EQ(q.executed(), 4u);
    EXPECT_EQ(q.now(), 20u);
}

TEST(EventQueueLanesDeath, DecreasingLaneTickPanics)
{
    EventQueue q;
    Sink sink;
    const Lane lane = q.addLane<Sink, &Sink::fire>(&sink);
    q.schedule(lane, 20, 0);
    EXPECT_DEATH(q.schedule(lane, 10, 1), "must not decrease");
}

TEST(EventQueueLanesDeath, LaneTickInThePastPanics)
{
    EventQueue q;
    Sink sink;
    const Lane lane = q.addLane<Sink, &Sink::fire>(&sink);
    q.schedule(100, [&q, lane] {
        EXPECT_DEATH(q.schedule(lane, 50, 0), "past");
    });
    q.run();
}

TEST(Ticks, Conversions)
{
    EXPECT_DOUBLE_EQ(tt::sim::toSeconds(tt::sim::kTicksPerSecond), 1.0);
    EXPECT_EQ(tt::sim::fromNs(1.0), 1000u);
    EXPECT_EQ(tt::sim::fromNs(7.5), 7500u);
    // 2.8 GHz -> 357 ps.
    EXPECT_EQ(tt::sim::cyclePeriod(2.8), 357u);
}

} // namespace
