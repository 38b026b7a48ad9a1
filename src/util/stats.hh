/**
 * @file
 * Small statistics helpers used by monitors, the simulator and the
 * benchmark harnesses.
 *
 * The paper (Sec. V) averages the middle 10 of 20 runs to suppress
 * measurement noise; trimmedMean() implements that estimator.
 * geometricMean() matches the "geometric mean of 12% improvement"
 * summary statistic used in the abstract.
 *
 * Histogram and MetricsRegistry form the metrics half of the runtime
 * observability layer (src/obs holds the tracing half): policies and
 * runtimes publish named counters, gauges and log-bucketed
 * distributions into a registry, which renders them as JSON
 * (`ttsim --metrics-out=`) or a human-readable table.
 */

#ifndef TT_UTIL_STATS_HH
#define TT_UTIL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace tt {

/** Streaming accumulator: count / mean / variance / min / max. */
class RunningStat
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStat &other);

    /** Remove all observations. */
    void reset();

    std::size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const;

    /** Population variance; 0 with fewer than two samples. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Smallest observation; 0 when empty. */
    double min() const;

    /** Largest observation; 0 when empty. */
    double max() const;

    /** Sum of all observations. */
    double sum() const { return sum_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Arithmetic mean of a vector; 0 when empty. */
double mean(const std::vector<double> &xs);

/**
 * Mean of the middle samples after discarding the `trim` smallest and
 * `trim` largest values (the paper's middle-10-of-20 estimator is
 * trimmedMean(xs, 5) with 20 samples).
 */
double trimmedMean(std::vector<double> xs, std::size_t trim);

/** Geometric mean; all inputs must be positive. */
double geometricMean(const std::vector<double> &xs);

/** Median (of a copy); 0 when empty. */
double median(std::vector<double> xs);

/** Sliding window over the last `capacity` observations. */
class SlidingWindow
{
  public:
    explicit SlidingWindow(std::size_t capacity);

    void add(double x);
    void reset();

    std::size_t size() const { return data_.size(); }
    std::size_t capacity() const { return capacity_; }
    bool full() const { return data_.size() == capacity_; }

    /** Mean over the samples currently held. */
    double mean() const;

  private:
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::vector<double> data_;
};

/**
 * Fixed log-scale-bucket histogram.
 *
 * Bucket edges are min_value * growth^k for k in [0, buckets]; slot
 * 0 is the underflow bucket (x < min_value) and the last slot the
 * overflow bucket (x >= the top edge). The geometry is fixed at
 * construction so two histograms with equal options merge exactly;
 * the defaults span 1 ns .. ~18 s at x2 resolution, covering every
 * duration the runtimes measure.
 */
class Histogram
{
  public:
    struct Options
    {
        double min_value = 1e-9; ///< lower edge of the first bucket
        double growth = 2.0;     ///< geometric factor between edges
        int buckets = 64;        ///< finite buckets between the edges
    };

    Histogram() : Histogram(Options{}) {}
    explicit Histogram(const Options &options);

    void add(double x);

    /** Merge another histogram; the bucket geometry must match. */
    void merge(const Histogram &other);

    void reset();

    std::size_t count() const { return stat_.count(); }
    bool empty() const { return stat_.empty(); }
    double mean() const { return stat_.mean(); }
    double min() const { return stat_.min(); }
    double max() const { return stat_.max(); }
    double sum() const { return stat_.sum(); }

    /** Total slots, including underflow (0) and overflow (last). */
    int bucketCount() const { return static_cast<int>(hits_.size()); }

    std::uint64_t bucketHits(int bucket) const;

    /** Inclusive lower edge of a slot (0 for the underflow slot). */
    double bucketLowerBound(int bucket) const;

    /** Exclusive upper edge of a slot (+inf for the overflow slot). */
    double bucketUpperBound(int bucket) const;

    /** Slot index the value would land in. */
    int bucketIndex(double x) const;

    /**
     * Approximate q-quantile (q in [0, 1]): linear interpolation
     * within the bucket holding the q-th observation, clamped to the
     * observed min/max. 0 when empty.
     */
    double quantile(double q) const;

    /** Common percentiles (log-bucket interpolation via quantile). */
    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    const Options &options() const { return options_; }

  private:
    Options options_;
    std::vector<double> edges_; ///< buckets + 1 ascending edges
    std::vector<std::uint64_t> hits_;
    RunningStat stat_;
};

/** Steady-clock nanoseconds, the stamp behind every wall-cost
 *  counter (the `obs.overhead.*` family). */
std::uint64_t wallNanos();

/**
 * Thread-safe registry of named metrics: monotonic counters, last- or
 * max-value gauges, and log-bucket Histogram distributions. Policies
 * and runtimes publish into one registry during a run; afterwards it
 * renders as JSON (writeJson) or an aligned text table (summaryTable,
 * built on TablePrinter). All operations take one internal mutex --
 * cheap next to the work each published sample represents.
 *
 * A hot publisher interns its names once (counterId, histogramId) and
 * then writes by slot: the mutex and an index, no string built or
 * searched. Interning only reserves the slot; the name enters the
 * registry -- counterNames(), writeJson, the snapshots -- at its
 * first write, exactly as a by-name write would create it, so the
 * two kinds of write are interchangeable. Ids stay valid for the
 * registry's lifetime, across clear().
 */
class MetricsRegistry
{
  public:
    /** An interned counter name. */
    struct CounterId
    {
        std::uint32_t index = 0;
    };

    /** An interned histogram name and its bucket geometry. */
    struct HistogramId
    {
        std::uint32_t index = 0;
    };

    /** One histogram observation by slot, for batched writes. */
    struct Observation
    {
        HistogramId id;
        double value = 0.0;
    };

    /** Intern a counter name; the same name yields the same id. */
    CounterId counterId(const std::string &name);

    /** Intern a histogram name with the geometry its first write
     *  creates it with (the first interning's geometry wins). */
    HistogramId histogramId(const std::string &name,
                            const Histogram::Options &options = {});

    /** The geometry interned with `id`. */
    Histogram::Options histogramOptions(HistogramId id) const;

    /** Add `delta` to a counter, creating it at zero. */
    void add(const std::string &name, std::int64_t delta = 1);

    /** As add(name, delta), by interned slot. */
    void add(CounterId id, std::int64_t delta = 1);

    /** Set a gauge to `value`. */
    void set(const std::string &name, double value);

    /** Raise a gauge to `value` if larger (high-water mark). */
    void setMax(const std::string &name, double value);

    /** Record one observation into a histogram (default geometry). */
    void observe(const std::string &name, double value);

    /** Record each observation in turn, by interned slot, under one
     *  lock; a slot's first write creates its histogram with the
     *  interned geometry. */
    void observe(std::span<const Observation> batch);

    /**
     * Merge a whole histogram into the slot's (creating it with the
     * interned geometry, which must match `shard`'s) — the fold point
     * for per-worker metric shards. Exact for bucket hits, counts,
     * sums and min/max; equivalent to having observed every sample
     * here.
     */
    void merge(HistogramId id, const Histogram &shard);

    std::int64_t counter(const std::string &name) const;
    double gauge(const std::string &name, double fallback = 0.0) const;

    /** Snapshot of a histogram; empty default geometry when absent. */
    Histogram histogram(const std::string &name) const;

    bool hasCounter(const std::string &name) const;
    bool hasGauge(const std::string &name) const;
    bool hasHistogram(const std::string &name) const;

    std::vector<std::string> counterNames() const;
    std::vector<std::string> gaugeNames() const;
    std::vector<std::string> histogramNames() const;

    bool empty() const;

    /** Drop every metric. Interned ids stay valid: their next write
     *  re-creates the name. */
    void clear();

    /** Every metric the registry holds, each kind in name order. */
    struct View
    {
        const std::map<std::string, std::int64_t> &counters;
        const std::map<std::string, double> &gauges;
        const std::map<std::string, Histogram> &histograms;
    };

    /** Call `f(view)` under the registry mutex: one walk of every
     *  metric, nothing copied or searched. `f` must not call back
     *  into the registry. */
    template <typename F>
    void
    visit(F &&f) const
    {
        std::lock_guard lock(mutex_);
        f(View{counters_, gauges_, histograms_});
    }

    /** Render every metric as one JSON object. */
    void writeJson(std::ostream &os) const;

    /** Render every metric as an aligned human-readable table. */
    std::string summaryTable() const;

  private:
    /** An interned counter: its name and, once written, its value
     *  (a std::map node, which stays put until clear()). */
    struct CounterSlot
    {
        std::string name;
        std::int64_t *value = nullptr;
    };

    /** An interned histogram, as CounterSlot, with its geometry. */
    struct HistogramSlot
    {
        std::string name;
        Histogram::Options options;
        Histogram *hist = nullptr;
    };

    /** `id`'s counter, created at zero on first use; under mutex_. */
    std::int64_t &counterLocked(CounterId id);
    /** `id`'s histogram, created on first use; under mutex_. */
    Histogram &histogramLocked(HistogramId id);

    mutable std::mutex mutex_;
    std::map<std::string, std::int64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, std::uint32_t> counter_ids_;
    std::map<std::string, std::uint32_t> histogram_ids_;
    std::vector<CounterSlot> counter_slots_;     ///< by CounterId
    std::vector<HistogramSlot> histogram_slots_; ///< by HistogramId
};

} // namespace tt

#endif // TT_UTIL_STATS_HH
