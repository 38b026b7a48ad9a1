/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events execute in (tick, schedule sequence) order: events at the
 * same tick run first-scheduled first, so a simulation is exactly
 * reproducible run to run.
 *
 * Events live in two kinds of store that share one schedule
 * sequence. The heap holds plain records -- tick, id and a Thunk --
 * that move with memcpy; small callables live inline in them (see
 * callback.hh) and only callables that do not fit (timers wrapping a
 * std::function, large captures) are boxed. Typed FIFO lanes hold
 * the per-line DRAM events: a lane is a ring of {tick, id, arg}
 * records for one member function of one owner, and its ticks never
 * decrease, so its head is its earliest event. runOne runs the least
 * (tick, id) among the heap top and the lane heads, which is exactly
 * the order one heap holding every event would give. Descheduling
 * marks a pending heap record in place, and popping it skips it;
 * lane events cannot be cancelled.
 */

#ifndef TT_SIM_EVENT_QUEUE_HH
#define TT_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/ticks.hh"

namespace tt::sim {

/** Handle to a scheduled event; usable for descheduling. */
using EventId = std::uint64_t;

/** Handle to a FIFO lane of an EventQueue; see addLane. */
struct Lane
{
    std::uint32_t index = 0;
};

/** Event queue driving the simulated machine: a min-heap plus lanes. */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule `cb` at absolute tick `when` (>= now). */
    EventId schedule(Tick when, Callback cb);

    /** Schedule `cb` `delta` ticks from now. */
    EventId
    scheduleIn(Tick delta, Callback cb)
    {
        return schedule(now_ + delta, std::move(cb));
    }

    /**
     * Add a lane whose events run `(owner->*Fn)(arg)`. The owner
     * must outlive every event scheduled on the lane.
     */
    template <class T, void (T::*Fn)(std::uint32_t)>
    Lane
    addLane(T *owner)
    {
        return registerLane(owner, [](void *self, std::uint32_t arg) {
            (static_cast<T *>(self)->*Fn)(arg);
        });
    }

    /**
     * Schedule the lane's handler with `arg` at absolute tick `when`
     * (>= now, and >= the tick last scheduled on the lane). The event
     * takes the next id of the same sequence as heap events.
     */
    void schedule(Lane lane, Tick when, std::uint32_t arg);

    /**
     * Cancel a pending heap event; no-op if it already executed or
     * was already cancelled. Scans the pending heap events:
     * cancellation is rare (timers at drain), so no lookup structure
     * is kept for it.
     */
    void deschedule(EventId id);

    /** True when nothing is pending (cancelled events count until
     *  their tick is reached). */
    bool empty() const;

    /**
     * Execute the earliest pending event; returns false when the
     * queue is empty.
     */
    bool runOne();

    /**
     * Run until the queue drains. `max_events` bounds runaway
     * simulations; exceeding it is a panic (a model bug, since all
     * models here terminate).
     */
    void run(std::uint64_t max_events = kDefaultEventBudget);

    /** Events executed so far. */
    std::uint64_t executed() const { return executed_; }

    static constexpr std::uint64_t kDefaultEventBudget =
        50'000'000'000ULL;

  private:
    struct Entry
    {
        Tick when;
        EventId id;
        Thunk fn; ///< empty once descheduled
    };

    /** Heap order: the entry that must run later sorts first. */
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.id > b.id; // FIFO among equal ticks
        }
    };

    struct LaneEntry
    {
        Tick when;
        EventId id;
        std::uint32_t arg;
    };

    using LaneHandler = void (*)(void *owner, std::uint32_t arg);

    /** A FIFO of lane entries in a power-of-two ring. */
    struct LaneState
    {
        void *owner;
        LaneHandler handler;
        std::vector<LaneEntry> ring;
        std::size_t head = 0;
        std::size_t size = 0;
        Tick last = 0; ///< tick of the latest entry scheduled

        const LaneEntry &front() const { return ring[head]; }
    };

    Lane registerLane(void *owner, LaneHandler handler);

    Tick now_ = 0;
    EventId next_id_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Entry> heap_;
    std::vector<LaneState> lanes_;
};

} // namespace tt::sim

#endif // TT_SIM_EVENT_QUEUE_HH
