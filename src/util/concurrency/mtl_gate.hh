/**
 * @file
 * MTL admission gate: one counter of the memory tasks in flight that
 * admits a task only while the count is below the bound (the paper's
 * "a lock and a counter", Sec. V, without the lock).
 *
 * tryAcquire CAS-increments the count only from a value below the
 * bound, so the gate is exact: it never admits past the bound and
 * never refuses while there is room. release() is one seq_cst
 * fetch_sub and current() one seq_cst load, which the engine's
 * parking protocol pairs with its `parked_` hint. peak() is the
 * largest count any admission produced, so it never exceeds the
 * largest bound in effect.
 *
 * Refusals and admission attempts are counted on per-worker lines
 * that only their worker writes and nothing hot reads; they feed the
 * `runtime.gate_*` counters and the health engine's
 * `gate_saturation` ratio.
 */

#ifndef TT_UTIL_CONCURRENCY_MTL_GATE_HH
#define TT_UTIL_CONCURRENCY_MTL_GATE_HH

#include <atomic>
#include <cstddef>
#include <vector>

namespace tt::util {

class MtlGate
{
  public:
    /** `workers` is clamped to >= 1: one telemetry line each. */
    explicit MtlGate(std::size_t workers);

    MtlGate(const MtlGate &) = delete;
    MtlGate &operator=(const MtlGate &) = delete;

    /** Take one slot if fewer than `bound` are held; false (gate
     *  unchanged) otherwise, so `bound <= 0` always refuses. */
    bool tryAcquire(std::size_t worker, long bound);

    /** Release one slot previously acquired. */
    void release();

    /** Slots held now. */
    long current() const;

    /** Highest count any admission produced. */
    long peak() const;

    /** Refused tryAcquire calls; exact once admitters quiesce. */
    long admitFailures() const;

    /** tryAcquire calls, admitted or refused; exact likewise. */
    long folds() const;

  private:
    struct alignas(64) WorkerStats
    {
        std::atomic<long> failures{0};
        std::atomic<long> attempts{0};
    };

    /** One line, written by every admission and release. */
    alignas(64) std::atomic<long> count_{0};
    std::atomic<long> peak_{0};
    std::vector<WorkerStats> stats_;
};

} // namespace tt::util

#endif // TT_UTIL_CONCURRENCY_MTL_GATE_HH
