#include "obs/metric_shards.hh"

namespace tt::obs {

ShardedMetrics::ShardedMetrics(MetricsRegistry &sink,
                               std::size_t shards)
    : sink_(sink), shards_(shards)
{
}

ShardedMetrics::CounterId
ShardedMetrics::counter(const std::string &name)
{
    const CounterId id = sink_.counterId(name);
    for (Shard &s : shards_) {
        std::lock_guard lock(s.mutex);
        if (s.counters.size() <= id.index)
            s.counters.resize(id.index + 1, 0);
    }
    return id;
}

ShardedMetrics::HistogramId
ShardedMetrics::histogram(const std::string &name,
                          const Histogram::Options &options)
{
    const HistogramId id = sink_.histogramId(name, options);
    for (Shard &s : shards_) {
        std::lock_guard lock(s.mutex);
        // Concurrent interns may grow a shard in either order: each
        // slot takes the geometry its own id was interned with.
        while (s.histograms.size() <= id.index)
            s.histograms.emplace_back(sink_.histogramOptions(
                {static_cast<std::uint32_t>(s.histograms.size())}));
    }
    return id;
}

void
ShardedMetrics::add(std::size_t shard, CounterId id, std::int64_t delta)
{
    if (shards_.empty()) {
        sink_.add(id, delta);
        return;
    }
    Shard &s = shards_[shard % shards_.size()];
    std::lock_guard lock(s.mutex);
    s.counters[id.index] += delta;
}

void
ShardedMetrics::observe(std::size_t shard, HistogramId id, double value)
{
    const Observation one{id, value};
    observe(shard, {&one, 1});
}

void
ShardedMetrics::observe(std::size_t shard,
                        std::span<const Observation> batch)
{
    if (shards_.empty()) {
        sink_.observe(batch);
        return;
    }
    Shard &s = shards_[shard % shards_.size()];
    std::lock_guard lock(s.mutex);
    for (const Observation &o : batch)
        s.histograms[o.id.index].add(o.value);
}

void
ShardedMetrics::fold()
{
    for (Shard &s : shards_) {
        // The worker waits out its own shard's merge (a few slots);
        // in exchange nothing is swapped out or re-allocated.
        std::lock_guard lock(s.mutex);
        for (std::size_t i = 0; i < s.counters.size(); ++i) {
            if (s.counters[i] == 0)
                continue;
            sink_.add(CounterId{static_cast<std::uint32_t>(i)},
                      s.counters[i]);
            s.counters[i] = 0;
        }
        for (std::size_t i = 0; i < s.histograms.size(); ++i) {
            Histogram &hist = s.histograms[i];
            if (hist.empty())
                continue;
            sink_.merge(HistogramId{static_cast<std::uint32_t>(i)}, hist);
            hist.reset();
        }
    }
}

} // namespace tt::obs
