/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events execute in (tick, schedule sequence) order: events at the
 * same tick run first-scheduled first, so a simulation is exactly
 * reproducible run to run.
 *
 * The heap holds plain records -- tick, id and a Thunk -- that move
 * with memcpy. The per-line callables of the cores, the memory
 * system and the DRAM channels live inline in those records (see
 * callback.hh), so scheduling and running them never allocates; only
 * callables that do not fit (timers wrapping a std::function, large
 * captures) are boxed. Descheduling marks the pending record in
 * place, and popping it skips it: no side table is probed per event.
 */

#ifndef TT_SIM_EVENT_QUEUE_HH
#define TT_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/ticks.hh"

namespace tt::sim {

/** Handle to a scheduled event; usable for descheduling. */
using EventId = std::uint64_t;

/** Min-heap event queue driving the simulated machine. */
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
     * Cancel a pending event; no-op if it already executed or was
     * already cancelled. Scans the pending events: cancellation is
     * rare (timers at drain), so no lookup structure is kept for it.
     */
    void deschedule(EventId id);

    /** True when nothing is pending (cancelled events count until
     *  their tick is reached). */
    bool
    empty() const
    {
        return heap_.empty();
    }

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

    Tick now_ = 0;
    EventId next_id_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Entry> heap_;
};

} // namespace tt::sim

#endif // TT_SIM_EVENT_QUEUE_HH
