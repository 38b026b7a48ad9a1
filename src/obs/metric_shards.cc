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
    std::lock_guard names(names_mutex_);
    const auto [it, inserted] = counter_ids_.try_emplace(
        name, static_cast<std::uint32_t>(counter_names_.size()));
    if (inserted) {
        counter_names_.push_back(name);
        // Every shard gets the slot before the id is handed out, so a
        // publication never has to grow its shard.
        for (Shard &s : shards_) {
            std::lock_guard lock(s.mutex);
            s.counters.push_back(0);
        }
    }
    return {it->second};
}

ShardedMetrics::HistogramId
ShardedMetrics::histogram(const std::string &name,
                          const Histogram::Options &options)
{
    std::lock_guard names(names_mutex_);
    const auto [it, inserted] = histogram_ids_.try_emplace(
        name, static_cast<std::uint32_t>(histogram_names_.size()));
    if (inserted) {
        histogram_names_.push_back(name);
        histogram_options_.push_back(options);
        for (Shard &s : shards_) {
            std::lock_guard lock(s.mutex);
            s.histograms.emplace_back(options);
        }
    }
    return {it->second};
}

void
ShardedMetrics::add(std::size_t shard, CounterId id, std::int64_t delta)
{
    if (shards_.empty()) {
        std::lock_guard names(names_mutex_);
        sink_.add(counter_names_[id.index], delta);
        return;
    }
    Shard &s = shards_[shard % shards_.size()];
    std::lock_guard lock(s.mutex);
    s.counters[id.index] += delta;
}

void
ShardedMetrics::observe(std::size_t shard, HistogramId id, double value)
{
    if (shards_.empty()) {
        std::lock_guard names(names_mutex_);
        sink_.observe(histogram_names_[id.index], value,
                      histogram_options_[id.index]);
        return;
    }
    Shard &s = shards_[shard % shards_.size()];
    std::lock_guard lock(s.mutex);
    s.histograms[id.index].add(value);
}

void
ShardedMetrics::fold()
{
    std::lock_guard names(names_mutex_);
    for (Shard &s : shards_) {
        // The worker waits out its own shard's merge (a few slots);
        // in exchange nothing is swapped out or re-allocated.
        std::lock_guard lock(s.mutex);
        for (std::size_t i = 0; i < s.counters.size(); ++i) {
            if (s.counters[i] == 0)
                continue;
            sink_.add(counter_names_[i], s.counters[i]);
            s.counters[i] = 0;
        }
        for (std::size_t i = 0; i < s.histograms.size(); ++i) {
            Histogram &hist = s.histograms[i];
            if (hist.empty())
                continue;
            sink_.merge(histogram_names_[i], hist);
            hist.reset();
        }
    }
}

} // namespace tt::obs
