/**
 * @file
 * Unit tests of the discrete-event kernel: ordering, FIFO tie
 * breaking across inline and boxed callables, cancellation,
 * re-entrant scheduling and the runaway budget.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/ticks.hh"

namespace {

using tt::sim::Callback;
using tt::sim::EventId;
using tt::sim::EventQueue;
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

TEST(Ticks, Conversions)
{
    EXPECT_DOUBLE_EQ(tt::sim::toSeconds(tt::sim::kTicksPerSecond), 1.0);
    EXPECT_EQ(tt::sim::fromNs(1.0), 1000u);
    EXPECT_EQ(tt::sim::fromNs(7.5), 7500u);
    // 2.8 GHz -> 357 ps.
    EXPECT_EQ(tt::sim::cyclePeriod(2.8), 357u);
}

} // namespace
