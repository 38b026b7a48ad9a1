/**
 * @file
 * Fixed-capacity record ring: the storage behind the run's pairs in
 * terminal order, from which exec::Engine builds the spans (span.hh)
 * after the run.
 *
 * The rules:
 *  - one writer at a time -- exec::Engine records terminal pairs
 *    under its run mutex -- so record() needs no synchronisation of
 *    its own;
 *  - the storage is reserved up front, so recording never
 *    allocates for the ring itself;
 *  - when full, the oldest record is overwritten and counted in
 *    dropped();
 *  - recorded() and dropped() derive from one relaxed atomic
 *    counter, so any thread may read them mid-run (the health tick
 *    samples the drop rate) without touching the records;
 *  - the records themselves are read once, after the writer has
 *    stopped, through drain(), which moves them out oldest first.
 */

#ifndef TT_OBS_RING_HH
#define TT_OBS_RING_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace tt::obs {

template <class T>
class RecordRing
{
  public:
    explicit RecordRing(std::size_t capacity) : capacity_(capacity)
    {
        tt_assert(capacity_ > 0, "ring capacity must be positive");
        data_.reserve(capacity_);
    }

    /** Append one record, overwriting the oldest when full. */
    void
    record(T value)
    {
        const std::uint64_t n = recorded_.load(std::memory_order_relaxed);
        if (data_.size() < capacity_)
            data_.push_back(std::move(value));
        else
            data_[static_cast<std::size_t>(n % capacity_)] =
                std::move(value);
        recorded_.store(n + 1, std::memory_order_relaxed);
    }

    std::size_t capacity() const { return capacity_; }

    /** Records currently held (<= capacity); 0 once drained. Read
     *  by the writer or after it stopped. */
    std::size_t size() const { return data_.size(); }

    /** Total records, including overwritten ones. */
    std::uint64_t
    recorded() const
    {
        return recorded_.load(std::memory_order_relaxed);
    }

    /** Records lost to overwriting. Derived from the counter alone,
     *  never from size(): the writer's push_back races a live reader
     *  while the ring fills, and drain() empties the storage without
     *  touching the count. */
    std::uint64_t
    dropped() const
    {
        const std::uint64_t n = recorded();
        return n <= capacity_ ? 0 : n - capacity_;
    }

    /**
     * Move the held records out, oldest first, leaving the ring
     * empty; recorded() and dropped() keep their values. Call once,
     * after the writer has stopped -- it is the last call on the
     * ring that reads records.
     */
    std::vector<T>
    drain()
    {
        // Once the ring has wrapped, the oldest surviving record
        // sits at the next overwrite position.
        if (data_.size() == capacity_)
            std::rotate(data_.begin(),
                        data_.begin() +
                            static_cast<std::ptrdiff_t>(recorded() %
                                                        capacity_),
                        data_.end());
        std::vector<T> out = std::move(data_);
        data_.clear();
        return out;
    }

  private:
    std::size_t capacity_;
    /** Single writer; atomic so mid-run counter reads are clean. */
    std::atomic<std::uint64_t> recorded_{0};
    std::vector<T> data_; ///< slot = recorded % capacity once full
};

} // namespace tt::obs

#endif // TT_OBS_RING_HH
