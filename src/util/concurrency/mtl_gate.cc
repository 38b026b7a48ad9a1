#include "util/concurrency/mtl_gate.hh"

namespace tt::util {

MtlGate::MtlGate(std::size_t workers) : stats_(workers == 0 ? 1 : workers)
{
}

bool
MtlGate::tryAcquire(std::size_t worker, long bound)
{
    WorkerStats &stats = stats_[worker % stats_.size()];
    stats.attempts.fetch_add(1, std::memory_order_relaxed);
    long held = count_.load(std::memory_order_seq_cst);
    do {
        if (held >= bound) {
            stats.failures.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
    } while (!count_.compare_exchange_weak(held, held + 1,
                                           std::memory_order_seq_cst));
    long seen = peak_.load(std::memory_order_relaxed);
    while (held + 1 > seen &&
           !peak_.compare_exchange_weak(seen, held + 1,
                                        std::memory_order_relaxed))
        ;
    return true;
}

void
MtlGate::release()
{
    count_.fetch_sub(1, std::memory_order_seq_cst);
}

long
MtlGate::current() const
{
    return count_.load(std::memory_order_seq_cst);
}

long
MtlGate::peak() const
{
    return peak_.load(std::memory_order_relaxed);
}

long
MtlGate::admitFailures() const
{
    long sum = 0;
    for (const WorkerStats &stats : stats_)
        sum += stats.failures.load(std::memory_order_relaxed);
    return sum;
}

long
MtlGate::folds() const
{
    long sum = 0;
    for (const WorkerStats &stats : stats_)
        sum += stats.attempts.load(std::memory_order_relaxed);
    return sum;
}

} // namespace tt::util
