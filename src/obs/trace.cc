#include "obs/trace.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tt::obs {

Tracer::Tracer(int workers, std::size_t capacity_per_worker)
{
    tt_assert(workers >= 1, "Tracer needs at least one worker");
    rings_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        rings_.emplace_back(capacity_per_worker);
}

RecordRing<TaskEvent> &
Tracer::ring(int worker)
{
    tt_assert(worker >= 0 && worker < workers(),
              "worker index out of range");
    return rings_[static_cast<std::size_t>(worker)];
}

const RecordRing<TaskEvent> &
Tracer::ring(int worker) const
{
    tt_assert(worker >= 0 && worker < workers(),
              "worker index out of range");
    return rings_[static_cast<std::size_t>(worker)];
}

std::vector<TaskEvent>
Tracer::merged()
{
    std::vector<TaskEvent> out;
    std::size_t total = 0;
    for (const RecordRing<TaskEvent> &ring : rings_)
        total += ring.size();
    out.reserve(total);
    for (RecordRing<TaskEvent> &ring : rings_) {
        const std::vector<TaskEvent> events = ring.drain();
        out.insert(out.end(), events.begin(), events.end());
    }
    std::sort(out.begin(), out.end(),
              [](const TaskEvent &a, const TaskEvent &b) {
                  if (a.start != b.start)
                      return a.start < b.start;
                  if (a.end != b.end)
                      return a.end < b.end;
                  return a.task < b.task;
              });
    return out;
}

std::uint64_t
Tracer::recorded() const
{
    std::uint64_t total = 0;
    for (const RecordRing<TaskEvent> &ring : rings_)
        total += ring.recorded();
    return total;
}

std::uint64_t
Tracer::dropped() const
{
    std::uint64_t total = 0;
    for (const RecordRing<TaskEvent> &ring : rings_)
        total += ring.dropped();
    return total;
}

} // namespace tt::obs
