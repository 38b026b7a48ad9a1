#include "obs/trace.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

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

namespace {

/** The merged stream's order: start, then end, then task id. */
bool
eventBefore(const TaskEvent &a, const TaskEvent &b)
{
    if (a.start != b.start)
        return a.start < b.start;
    if (a.end != b.end)
        return a.end < b.end;
    return a.task < b.task;
}

} // namespace

std::vector<TaskEvent>
Tracer::merged()
{
    // A context runs one attempt at a time, so its ring is already in
    // start order; one whose equal-start events were recorded out of
    // (end, task) order is sorted on its own first. The rings are
    // appended to the first one's storage, each freed once copied, so
    // the trace is held once, as a whole-trace sort would hold it;
    // then they are merged in place, not sorted.
    std::size_t total = 0;
    for (const RecordRing<TaskEvent> &ring : rings_)
        total += ring.size();
    tt_assert(total < std::numeric_limits<std::uint32_t>::max(),
              "trace too large to merge");
    std::vector<TaskEvent> out;
    std::vector<std::uint32_t> bounds{0}; ///< each ring's first event
    for (RecordRing<TaskEvent> &ring : rings_) {
        std::vector<TaskEvent> run = ring.drain();
        if (run.empty())
            continue;
        if (!std::is_sorted(run.begin(), run.end(), eventBefore))
            std::sort(run.begin(), run.end(), eventBefore);
        if (out.empty()) {
            out = std::move(run);
            out.reserve(total); // a ring reserves its whole capacity
        } else {
            out.insert(out.end(), run.begin(), run.end());
        }
        bounds.push_back(static_cast<std::uint32_t>(out.size()));
    }
    if (bounds.size() <= 2)
        return out; // one ring or none: already in order

    // The merge order, as indices into `out`: a k-way merge over a
    // min-heap of ring heads. Equal heads go to the lower ring, as in
    // a stable merge.
    struct Head
    {
        std::uint32_t next;
        std::uint32_t last;
    };
    const auto before = [&out](const Head &a, const Head &b) {
        if (eventBefore(out[a.next], out[b.next]))
            return true;
        return !eventBefore(out[b.next], out[a.next]) && a.next < b.next;
    };
    std::vector<Head> heap;
    heap.reserve(bounds.size() - 1);
    for (std::size_t r = 0; r + 1 < bounds.size(); ++r)
        heap.push_back({bounds[r], bounds[r + 1]});
    std::make_heap(heap.begin(), heap.end(),
                   [&before](const Head &a, const Head &b) {
                       return before(b, a);
                   });
    std::vector<std::uint32_t> order;
    order.reserve(total);
    while (heap.size() > 1) {
        Head &top = heap.front();
        order.push_back(top.next);
        if (++top.next == top.last) {
            // That ring is done: put the last head on top.
            top = heap.back();
            heap.pop_back();
        }
        // Sift the new top down to its place.
        for (std::size_t i = 0;;) {
            std::size_t child = 2 * i + 1;
            if (child >= heap.size())
                break;
            if (child + 1 < heap.size() &&
                before(heap[child + 1], heap[child]))
                ++child;
            if (!before(heap[child], heap[i]))
                break;
            std::swap(heap[child], heap[i]);
            i = child;
        }
    }
    for (std::uint32_t i = heap.front().next; i < heap.front().last; ++i)
        order.push_back(i);

    // Position i takes the event at order[i]: move each cycle of the
    // permutation round once, marking its positions done.
    for (std::uint32_t i = 0; i < order.size(); ++i) {
        if (order[i] == i)
            continue;
        TaskEvent held = std::move(out[i]);
        for (std::uint32_t j = i;;) {
            const std::uint32_t from = order[j];
            order[j] = j;
            if (from == i) {
                out[j] = std::move(held);
                break;
            }
            out[j] = std::move(out[from]);
            j = from;
        }
    }
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
