/**
 * @file
 * Per-worker shards of the hot-path runtime metrics.
 *
 * Every attempt completion publishes a handful of counters and
 * histogram observations (runtime.tm_seconds.*, response-time and
 * ready-depth distributions, ...). Routing those straight into the
 * shared MetricsRegistry serializes all workers on its one mutex —
 * exactly the convoy the lock-free engine fast path removes
 * elsewhere. ShardedMetrics gives each worker its own shard:
 * publications touch only worker-local state, and the engine folds
 * the shards into the registry at every observation tick (health,
 * time series and live; on worker threads the live tick runs, fold
 * only, even without a snapshot sink) and at drain.
 *
 * Each shard carries its own small mutex rather than per-name
 * atomics: the hot path is the *only* writer of its shard, so that
 * mutex is uncontended (an uncontended lock is one CAS — no convoy),
 * while still making the fold linearizable against a concurrent
 * sampler. Names stay dynamic (`runtime.tm_seconds.mtl=K` keys vary
 * with the MTL in effect), which per-name atomics cannot express.
 *
 * Folding is exact, not approximate: counters add, histograms merge
 * bucket-by-bucket (same geometry), so after any fold the registry
 * holds precisely the values it would have held had every
 * publication gone to it directly. Between folds the registry lags
 * by whatever the shards hold: at most one live interval.
 */

#ifndef TT_OBS_METRIC_SHARDS_HH
#define TT_OBS_METRIC_SHARDS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.hh"

namespace tt::obs {

class ShardedMetrics
{
  public:
    /**
     * `shards` worker-local shards (clamped to >= 1) folding into
     * `sink`. The sink must outlive this object.
     */
    ShardedMetrics(MetricsRegistry &sink, std::size_t shards);

    ShardedMetrics(const ShardedMetrics &) = delete;
    ShardedMetrics &operator=(const ShardedMetrics &) = delete;

    /** Add `delta` to a counter in shard `shard`. */
    void add(std::size_t shard, const std::string &name,
             std::int64_t delta = 1);

    /** Record one histogram observation (default geometry). */
    void observe(std::size_t shard, const std::string &name,
                 double value);

    /** As observe(), with explicit geometry on first use. */
    void observe(std::size_t shard, const std::string &name,
                 double value, const Histogram::Options &options);

    /**
     * Fold every shard into the sink and reset the shards. Safe
     * concurrently with publications (each shard is swapped out
     * under its own mutex); call at window boundaries and drain.
     */
    void fold();

    std::size_t shards() const { return shards_.size(); }

  private:
    struct alignas(64) Shard
    {
        std::mutex mutex;
        std::map<std::string, std::int64_t> counters;
        std::map<std::string, Histogram> histograms;
    };

    MetricsRegistry &sink_;
    std::vector<Shard> shards_;
};

} // namespace tt::obs

#endif // TT_OBS_METRIC_SHARDS_HH
