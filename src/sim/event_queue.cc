#include "sim/event_queue.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tt::sim {

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
EventQueue::runOne()
{
    while (!heap_.empty()) {
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
    return false;
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
