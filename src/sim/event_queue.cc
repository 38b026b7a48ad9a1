#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tt::sim {

namespace {

/** Ring capacity of a lane's first growth. */
constexpr std::size_t kLaneInitialCapacity = 16;

/** (tick, id) order shared by heap records and lane entries. */
template <class A, class B>
bool
runsBefore(const A &a, const B &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    return a.id < b.id;
}

} // namespace

EventQueue::~EventQueue()
{
    for (Entry &entry : heap_)
        entry.fn.release();
}

EventId
EventQueue::schedule(Tick when, Callback cb)
{
    tt_assert(when >= now_, "cannot schedule into the past (when=",
              when, ", now=", now_, ")");
    tt_assert(cb, "scheduling an empty callback");
    const EventId id = next_id_++;
    heap_.push_back(Entry{when, id, cb.take()});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return id;
}

Lane
EventQueue::registerLane(void *owner, LaneHandler handler)
{
    lanes_.push_back(LaneState{owner, handler, {}});
    return Lane{static_cast<std::uint32_t>(lanes_.size() - 1)};
}

void
EventQueue::schedule(Lane lane, Tick when, std::uint32_t arg)
{
    LaneState &state = lanes_[lane.index];
    tt_assert(when >= now_, "cannot schedule into the past (when=",
              when, ", now=", now_, ")");
    tt_assert(when >= state.last, "lane ticks must not decrease (when=",
              when, ", last=", state.last, ")");
    if (state.size == state.ring.size()) {
        // Full: unroll into a ring twice the size, oldest first.
        std::vector<LaneEntry> grown(
            std::max(kLaneInitialCapacity, 2 * state.ring.size()));
        for (std::size_t i = 0; i < state.size; ++i)
            grown[i] =
                state.ring[(state.head + i) & (state.ring.size() - 1)];
        state.ring = std::move(grown);
        state.head = 0;
    }
    state.ring[(state.head + state.size) & (state.ring.size() - 1)] =
        LaneEntry{when, next_id_++, arg};
    ++state.size;
    state.last = when;
}

void
EventQueue::deschedule(EventId id)
{
    for (Entry &entry : heap_) {
        if (entry.id == id) {
            entry.fn.release();
            return;
        }
    }
}

bool
EventQueue::empty() const
{
    for (const LaneState &lane : lanes_)
        if (lane.size != 0)
            return false;
    return heap_.empty();
}

bool
EventQueue::runOne()
{
    for (;;) {
        LaneState *lane = nullptr;
        for (LaneState &candidate : lanes_)
            if (candidate.size != 0 &&
                (lane == nullptr ||
                 runsBefore(candidate.front(), lane->front())))
                lane = &candidate;

        if (!heap_.empty() &&
            (lane == nullptr || runsBefore(heap_.front(), lane->front()))) {
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            Entry entry = heap_.back();
            heap_.pop_back();
            if (entry.fn.op == nullptr)
                continue; // descheduled
            now_ = entry.when;
            ++executed_;
            entry.fn.run();
            return true;
        }
        if (lane == nullptr)
            return false;

        // Pop before running: the handler may schedule on its lane.
        const LaneEntry entry = lane->front();
        lane->head = (lane->head + 1) & (lane->ring.size() - 1);
        --lane->size;
        now_ = entry.when;
        ++executed_;
        lane->handler(lane->owner, entry.arg);
        return true;
    }
}

void
EventQueue::run(std::uint64_t max_events)
{
    const std::uint64_t start = executed_;
    while (runOne()) {
        if (executed_ - start > max_events)
            tt_panic("event budget exhausted: simulation does not "
                     "terminate");
    }
}

} // namespace tt::sim
