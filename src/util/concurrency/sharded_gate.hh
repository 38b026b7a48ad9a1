/**
 * @file
 * Sharded admission gate: a concurrent bounded counter that admits at
 * most `bound` holders at any instant, built from per-shard atomics
 * so concurrent admitters on different workers do not contend on one
 * cache line.
 *
 * This is the lock-free form of the engine's `mem_in_flight < MTL`
 * check. Admission is optimistic: the caller bumps its own shard,
 * then folds all shards and backs the increment out if the sum
 * overshoots the bound. The gate is *conservative* — a racing fold
 * can observe another admitter's transient increment and spuriously
 * reject (the caller simply requeues and retries), but two admitters
 * can never both succeed past the bound.
 *
 * Memory ordering: the fetch_add and the fold loads are seq_cst, not
 * relaxed. The bound proof is a Dekker-style store-buffer argument —
 * each admitter must observe every increment that precedes its fold
 * in the single total order of seq_cst operations. Consider any set
 * of admissions that would jointly exceed the bound: the last of
 * their fetch_adds in that total order is followed by that
 * admitter's fold, which therefore sees all the others' increments,
 * sums past the bound, and backs out. With relaxed (or even acq_rel)
 * ordering two concurrent admitters could each miss the other's
 * store still sitting in a store buffer and both conclude the gate
 * has room.
 *
 * Peak tracking: after a *successful* admit the caller folds again
 * and CAS-maxes the sum into `peak_`. Sums recorded this way are
 * bounded by `bound` (transient over-admissions back out before
 * recording), so peak() never exceeds the largest bound in effect —
 * the property the audit asserts — and is exact whenever admissions
 * are serialized (the engine's single-dispatcher push scan).
 */

#ifndef TT_UTIL_CONCURRENCY_SHARDED_GATE_HH
#define TT_UTIL_CONCURRENCY_SHARDED_GATE_HH

#include <atomic>
#include <cstddef>
#include <vector>

namespace tt::util {

class ShardedGate
{
  public:
    /** `shards` is clamped to >= 1; one per worker is the intent. */
    explicit ShardedGate(std::size_t shards);

    ShardedGate(const ShardedGate &) = delete;
    ShardedGate &operator=(const ShardedGate &) = delete;

    /**
     * Try to take one slot against `bound`, preferring the caller's
     * shard. Returns false (and leaves the gate unchanged) when the
     * folded count would exceed the bound. `bound <= 0` always
     * rejects.
     */
    bool tryAcquire(std::size_t shard_hint, long bound);

    /** Release one slot previously acquired. */
    void release(std::size_t shard_hint);

    /** Precise fold of all shards (seq_cst loads). */
    long current() const;

    /** Highest folded count observed at any successful admit. */
    long peak() const;

    /**
     * Total rejected tryAcquire calls (bound full, spurious
     * conservative rejects, and bound <= 0). Relaxed fold across
     * shards: exact once admitters quiesce.
     */
    long admitFailures() const;

    /** Total shard folds performed by tryAcquire (one per call). */
    long folds() const;

    std::size_t shards() const { return shards_.size(); }

  private:
    /** Monotonically raise peak_ to `value`. */
    void notePeak(long value);

    struct alignas(64) Shard
    {
        std::atomic<long> count{0};
    };

    /** Contention telemetry lives on its own per-shard lines: every
     *  fold reads all `count` lines, so a telemetry bump sharing one
     *  would invalidate every other admitter's cached copy. Here only
     *  the owning worker writes, and nothing hot ever reads. */
    struct alignas(64) ShardStats
    {
        std::atomic<long> failures{0};
        std::atomic<long> folds{0};
    };

    std::vector<Shard> shards_;
    std::vector<ShardStats> stats_;
    alignas(64) std::atomic<long> peak_{0};
};

} // namespace tt::util

#endif // TT_UTIL_CONCURRENCY_SHARDED_GATE_HH
