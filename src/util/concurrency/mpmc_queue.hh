/**
 * @file
 * Bounded lock-free multi-producer/multi-consumer ring queue
 * (Dmitry Vyukov's bounded MPMC algorithm).
 *
 * This is the ready-queue primitive of the engine's lock-free fast
 * path: dispatch pops and completion pushes cost one CAS on the
 * position counter plus one release store on the cell, with no
 * allocation after construction. Cells are padded to a cache line so
 * neighbouring slots never false-share, and the producer/consumer
 * cursors live on their own lines.
 *
 * Memory ordering (the whole contract, per Vyukov):
 *  - each cell carries a `sequence` ticket. A producer may fill cell
 *    i once sequence == position; it publishes the element with
 *    sequence.store(position + 1, release).
 *  - a consumer may drain cell i once sequence == position + 1 (the
 *    acquire load of that ticket synchronises with the producer's
 *    release store, so the element read happens-after its write);
 *    it recycles the cell with sequence.store(position + capacity,
 *    release) for the producer one lap ahead.
 *  - the position counters themselves only need relaxed CAS: all
 *    inter-thread publication rides on the cell tickets.
 *
 * tryPush/tryPop are non-blocking and fail on full/empty; callers
 * park at a higher level (the engine's worker parking lot) rather
 * than spinning here.
 */

#ifndef TT_UTIL_CONCURRENCY_MPMC_QUEUE_HH
#define TT_UTIL_CONCURRENCY_MPMC_QUEUE_HH

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace tt::util {

template <typename T> class MpmcQueue
{
  public:
    /** Capacity is rounded up to the next power of two (>= 2). */
    explicit MpmcQueue(std::size_t capacity)
    {
        std::size_t cap = 2;
        while (cap < capacity)
            cap <<= 1;
        mask_ = cap - 1;
        cells_ = std::vector<Cell>(cap);
        for (std::size_t i = 0; i < cap; ++i)
            cells_[i].sequence.store(i, std::memory_order_relaxed);
    }

    MpmcQueue(const MpmcQueue &) = delete;
    MpmcQueue &operator=(const MpmcQueue &) = delete;

    std::size_t capacity() const { return mask_ + 1; }

    /** Enqueue; false when the ring is full. */
    bool
    tryPush(T value)
    {
        Cell *cell = nullptr;
        std::size_t pos = tail_.load(std::memory_order_relaxed);
        for (;;) {
            cell = &cells_[pos & mask_];
            const std::size_t seq =
                cell->sequence.load(std::memory_order_acquire);
            const auto dif = static_cast<std::ptrdiff_t>(seq) -
                             static_cast<std::ptrdiff_t>(pos);
            if (dif == 0) {
                if (tail_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                    break;
            } else if (dif < 0) {
                return false; // full: consumer a full lap behind
            } else {
                pos = tail_.load(std::memory_order_relaxed);
            }
        }
        cell->value = std::move(value);
        cell->sequence.store(pos + 1, std::memory_order_release);
        // Occupancy high-watermark from the live cursors, with the
        // slack of sizeApprox(): never above the count logically
        // enqueued at some instant.
        const std::size_t head = head_.load(std::memory_order_relaxed);
        const std::size_t occ = pos + 1 > head ? pos + 1 - head : 0;
        std::size_t seen = peak_.load(std::memory_order_relaxed);
        while (occ > seen &&
               !peak_.compare_exchange_weak(seen, occ,
                                            std::memory_order_relaxed))
            ;
        return true;
    }

    /** Dequeue into `out`; false when the ring is empty. */
    bool
    tryPop(T &out)
    {
        Cell *cell = nullptr;
        std::size_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            cell = &cells_[pos & mask_];
            const std::size_t seq =
                cell->sequence.load(std::memory_order_acquire);
            const auto dif = static_cast<std::ptrdiff_t>(seq) -
                             static_cast<std::ptrdiff_t>(pos + 1);
            if (dif == 0) {
                if (head_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                    break;
            } else if (dif < 0) {
                return false; // empty: no producer reached this cell
            } else {
                pos = head_.load(std::memory_order_relaxed);
            }
        }
        out = std::move(cell->value);
        cell->sequence.store(pos + mask_ + 1,
                             std::memory_order_release);
        return true;
    }

    /**
     * Approximate occupancy: exact when quiescent, a snapshot of two
     * racing cursors otherwise (never negative). Used for depth
     * metrics and park decisions, both tolerant of slack.
     */
    std::size_t
    sizeApprox() const
    {
        const std::size_t tail =
            tail_.load(std::memory_order_relaxed);
        const std::size_t head =
            head_.load(std::memory_order_relaxed);
        return tail > head ? tail - head : 0;
    }

    bool emptyApprox() const { return sizeApprox() == 0; }

    /**
     * Highest occupancy observed at any push (same slack as
     * sizeApprox()). Monotone over the queue's lifetime; feeds the
     * `runtime.ring_peak.*` telemetry.
     */
    std::size_t
    peakApprox() const
    {
        return peak_.load(std::memory_order_relaxed);
    }

  private:
    struct alignas(64) Cell
    {
        std::atomic<std::size_t> sequence{0};
        T value{};
    };

    std::size_t mask_ = 0;
    std::vector<Cell> cells_;
    alignas(64) std::atomic<std::size_t> tail_{0}; ///< producers
    alignas(64) std::atomic<std::size_t> head_{0}; ///< consumers
    alignas(64) std::atomic<std::size_t> peak_{0}; ///< max occupancy
};

} // namespace tt::util

#endif // TT_UTIL_CONCURRENCY_MPMC_QUEUE_HH
