/**
 * @file
 * Per-worker shards of the hot-path runtime metrics.
 *
 * Every attempt completion publishes a handful of histogram
 * observations (runtime.tm_seconds.*, response-time and ready-depth
 * distributions, ...), and every park one counter increment. Routing
 * those straight into the shared MetricsRegistry serializes all
 * workers on its one mutex — exactly the convoy the lock-free engine
 * fast path removes elsewhere. ShardedMetrics gives each worker its
 * own shard: publications touch only worker-local state, and the
 * engine folds the shards into the registry at every observation
 * tick (health, time series and live; on worker threads the live
 * tick runs, fold only, even without a snapshot sink) and at drain.
 *
 * Names are resolved to ids once, not per publication: counter() and
 * histogram() intern a name (with its bucket geometry) in the
 * registry itself (MetricsRegistry::counterId / histogramId) and
 * return the registry's slot id, and every shard keeps one array slot
 * per id, so a publication is an index, not a string build and a map
 * search, and a fold merges each slot into the registry by id. The
 * engine interns its fixed hot metrics when a run starts, and a
 * `runtime.tm_seconds.mtl=K` / `runtime.tc_seconds.mtl=K` pair the
 * first time a context measures a pair at MTL K; MTLs are whatever
 * the policy publishes, so ids can be interned while workers publish
 * and a fold runs. Interning only creates slots: a name reaches the
 * registry at the first fold that finds its slot non-empty.
 *
 * Each shard carries its own small mutex rather than per-slot
 * atomics: the hot path is the *only* writer of its shard, so that
 * mutex is uncontended (an uncontended lock is one CAS — no convoy),
 * while still making the fold linearizable against a concurrent
 * sampler. A fold merges each non-empty slot into the registry and
 * resets it in place, under the shard mutex, so steady-state folds
 * allocate nothing.
 *
 * Folding is exact, not approximate: counters add, histograms merge
 * bucket-by-bucket (same geometry), each name's shards in ascending
 * shard order, so after any fold the registry holds precisely the
 * values it would have held had every publication gone to it
 * directly. Between folds the registry lags by whatever the shards
 * hold: at most one live interval.
 *
 * With zero shards there is nothing to fold: each publication goes
 * straight to the registry's interned slot. That serves a backend
 * with one dispatcher, which has nothing to contend on and whose
 * registry must see every observation in publication order (a
 * shard folded at ticks would re-round histogram means through
 * RunningStat::merge).
 */

#ifndef TT_OBS_METRIC_SHARDS_HH
#define TT_OBS_METRIC_SHARDS_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/stats.hh"

namespace tt::obs {

class ShardedMetrics
{
  public:
    /** An interned counter name: the registry's slot id. */
    using CounterId = MetricsRegistry::CounterId;

    /** An interned histogram name and its bucket geometry. */
    using HistogramId = MetricsRegistry::HistogramId;

    /** One histogram observation, for batches. */
    using Observation = MetricsRegistry::Observation;

    /**
     * `shards` worker-local shards folding into `sink`; with 0 shards
     * every publication goes straight to `sink`. The sink must
     * outlive this object.
     */
    ShardedMetrics(MetricsRegistry &sink, std::size_t shards);

    ShardedMetrics(const ShardedMetrics &) = delete;
    ShardedMetrics &operator=(const ShardedMetrics &) = delete;

    /** Intern a counter name; the same name yields the same id.
     *  Safe concurrently with publications and folds. */
    CounterId counter(const std::string &name);

    /** Intern a histogram name with its geometry (the first
     *  registration's geometry wins). Safe concurrently with
     *  publications and folds. */
    HistogramId histogram(const std::string &name,
                          const Histogram::Options &options = {});

    /** Add `delta` to a counter in shard `shard`. */
    void add(std::size_t shard, CounterId id, std::int64_t delta = 1);

    /** Record one histogram observation in shard `shard`. */
    void observe(std::size_t shard, HistogramId id, double value);

    /** Record each observation in turn in shard `shard`, under one
     *  lock (the shard's, or with zero shards the registry's). */
    void observe(std::size_t shard, std::span<const Observation> batch);

    /**
     * Fold every shard into the sink and reset the shards in place.
     * Safe concurrently with publications (each shard is merged under
     * its own mutex) and with interning; call at window boundaries
     * and drain.
     */
    void fold();

  private:
    /** Slots by registry id; interning grows every shard's arrays to
     *  cover the new id before handing it out, so a publication never
     *  grows its shard. Ids interned by other registry users get
     *  slots too, which stay empty. Lock order: a shard mutex, then
     *  the sink's. */
    struct alignas(64) Shard
    {
        std::mutex mutex;
        std::vector<std::int64_t> counters; ///< by CounterId
        std::vector<Histogram> histograms;  ///< by HistogramId
    };

    MetricsRegistry &sink_;
    std::vector<Shard> shards_;
};

} // namespace tt::obs

#endif // TT_OBS_METRIC_SHARDS_HH
