#include "util/stats.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace tt {

std::uint64_t
wallNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
RunningStat::add(double x)
{
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (count_ == 1) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    sum_ += other.sum_;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

double
RunningStat::mean() const
{
    return count_ ? mean_ : 0.0;
}

double
RunningStat::variance() const
{
    return count_ > 1 ? m2_ / static_cast<double>(count_) : 0.0;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStat::min() const
{
    return count_ ? min_ : 0.0;
}

double
RunningStat::max() const
{
    return count_ ? max_ : 0.0;
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += x;
    return acc / static_cast<double>(xs.size());
}

double
geometricMean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_acc = 0.0;
    for (double x : xs) {
        tt_assert(x > 0.0, "geometricMean requires positive inputs");
        log_acc += std::log(x);
    }
    return std::exp(log_acc / static_cast<double>(xs.size()));
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    if (n % 2 == 1)
        return xs[n / 2];
    return 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Histogram::Histogram(const Options &options)
    : options_(options)
{
    tt_assert(options_.min_value > 0.0,
              "Histogram min_value must be positive");
    tt_assert(options_.growth > 1.0, "Histogram growth must exceed 1");
    tt_assert(options_.buckets >= 1, "Histogram needs a bucket");
    edges_.reserve(static_cast<std::size_t>(options_.buckets) + 1);
    double edge = options_.min_value;
    for (int k = 0; k <= options_.buckets; ++k) {
        edges_.push_back(edge);
        edge *= options_.growth;
    }
    hits_.assign(static_cast<std::size_t>(options_.buckets) + 2, 0);
}

void
Histogram::add(double x)
{
    ++hits_[static_cast<std::size_t>(bucketIndex(x))];
    stat_.add(x);
}

void
Histogram::merge(const Histogram &other)
{
    tt_assert(options_.min_value == other.options_.min_value &&
                  options_.growth == other.options_.growth &&
                  options_.buckets == other.options_.buckets,
              "cannot merge histograms with different bucket geometry");
    for (std::size_t i = 0; i < hits_.size(); ++i)
        hits_[i] += other.hits_[i];
    stat_.merge(other.stat_);
}

void
Histogram::reset()
{
    std::fill(hits_.begin(), hits_.end(), 0);
    stat_.reset();
}

std::uint64_t
Histogram::bucketHits(int bucket) const
{
    tt_assert(bucket >= 0 && bucket < bucketCount(),
              "bucket index out of range");
    return hits_[static_cast<std::size_t>(bucket)];
}

double
Histogram::bucketLowerBound(int bucket) const
{
    tt_assert(bucket >= 0 && bucket < bucketCount(),
              "bucket index out of range");
    return bucket == 0 ? 0.0
                       : edges_[static_cast<std::size_t>(bucket) - 1];
}

double
Histogram::bucketUpperBound(int bucket) const
{
    tt_assert(bucket >= 0 && bucket < bucketCount(),
              "bucket index out of range");
    return bucket == bucketCount() - 1
               ? std::numeric_limits<double>::infinity()
               : edges_[static_cast<std::size_t>(bucket)];
}

int
Histogram::bucketIndex(double x) const
{
    // First edge > x; slot 0 is underflow, the last slot overflow.
    return static_cast<int>(
        std::upper_bound(edges_.begin(), edges_.end(), x) -
        edges_.begin());
}

double
Histogram::quantile(double q) const
{
    if (stat_.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(stat_.count());
    double seen = 0.0;
    for (int b = 0; b < bucketCount(); ++b) {
        const double here = static_cast<double>(bucketHits(b));
        if (here == 0.0)
            continue;
        if (seen + here >= target) {
            const double lo =
                std::max(bucketLowerBound(b), stat_.min());
            const double hi =
                std::min(bucketUpperBound(b), stat_.max());
            const double frac =
                here > 0.0 ? (target - seen) / here : 0.0;
            return std::clamp(lo + frac * (hi - lo), stat_.min(),
                              stat_.max());
        }
        seen += here;
    }
    return stat_.max();
}

MetricsRegistry::CounterId
MetricsRegistry::counterId(const std::string &name)
{
    std::lock_guard lock(mutex_);
    const auto [it, inserted] = counter_ids_.try_emplace(
        name, static_cast<std::uint32_t>(counter_slots_.size()));
    if (inserted)
        counter_slots_.push_back({name});
    return {it->second};
}

MetricsRegistry::HistogramId
MetricsRegistry::histogramId(const std::string &name,
                             const Histogram::Options &options)
{
    std::lock_guard lock(mutex_);
    const auto [it, inserted] = histogram_ids_.try_emplace(
        name, static_cast<std::uint32_t>(histogram_slots_.size()));
    if (inserted)
        histogram_slots_.push_back({name, options});
    return {it->second};
}

Histogram::Options
MetricsRegistry::histogramOptions(HistogramId id) const
{
    std::lock_guard lock(mutex_);
    return histogram_slots_[id.index].options;
}

std::int64_t &
MetricsRegistry::counterLocked(CounterId id)
{
    CounterSlot &slot = counter_slots_[id.index];
    if (slot.value == nullptr)
        slot.value = &counters_[slot.name];
    return *slot.value;
}

Histogram &
MetricsRegistry::histogramLocked(HistogramId id)
{
    HistogramSlot &slot = histogram_slots_[id.index];
    if (slot.hist == nullptr)
        slot.hist = &histograms_.try_emplace(slot.name, slot.options)
                         .first->second;
    return *slot.hist;
}

void
MetricsRegistry::add(const std::string &name, std::int64_t delta)
{
    std::lock_guard lock(mutex_);
    counters_[name] += delta;
}

void
MetricsRegistry::add(CounterId id, std::int64_t delta)
{
    std::lock_guard lock(mutex_);
    counterLocked(id) += delta;
}

void
MetricsRegistry::set(const std::string &name, double value)
{
    std::lock_guard lock(mutex_);
    gauges_[name] = value;
}

void
MetricsRegistry::setMax(const std::string &name, double value)
{
    std::lock_guard lock(mutex_);
    auto [it, inserted] = gauges_.try_emplace(name, value);
    if (!inserted)
        it->second = std::max(it->second, value);
}

void
MetricsRegistry::observe(const std::string &name, double value)
{
    std::lock_guard lock(mutex_);
    histograms_[name].add(value);
}

void
MetricsRegistry::observe(std::span<const Observation> batch)
{
    std::lock_guard lock(mutex_);
    for (const Observation &o : batch)
        histogramLocked(o.id).add(o.value);
}

void
MetricsRegistry::merge(HistogramId id, const Histogram &shard)
{
    if (shard.empty())
        return;
    std::lock_guard lock(mutex_);
    histogramLocked(id).merge(shard);
}

std::int64_t
MetricsRegistry::counter(const std::string &name) const
{
    std::lock_guard lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
MetricsRegistry::gauge(const std::string &name, double fallback) const
{
    std::lock_guard lock(mutex_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? fallback : it->second;
}

Histogram
MetricsRegistry::histogram(const std::string &name) const
{
    std::lock_guard lock(mutex_);
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? Histogram() : it->second;
}

bool
MetricsRegistry::hasCounter(const std::string &name) const
{
    std::lock_guard lock(mutex_);
    return counters_.count(name) > 0;
}

bool
MetricsRegistry::hasGauge(const std::string &name) const
{
    std::lock_guard lock(mutex_);
    return gauges_.count(name) > 0;
}

bool
MetricsRegistry::hasHistogram(const std::string &name) const
{
    std::lock_guard lock(mutex_);
    return histograms_.count(name) > 0;
}

namespace {

template <typename Map>
std::vector<std::string>
sortedKeys(const Map &map)
{
    std::vector<std::string> names;
    names.reserve(map.size());
    for (const auto &[name, value] : map)
        names.push_back(name);
    return names; // std::map iterates in key order already
}

std::string
jsonNumber(double value)
{
    std::ostringstream os;
    os << std::setprecision(12) << value;
    return os.str();
}

} // namespace

std::vector<std::string>
MetricsRegistry::counterNames() const
{
    std::lock_guard lock(mutex_);
    return sortedKeys(counters_);
}

std::vector<std::string>
MetricsRegistry::gaugeNames() const
{
    std::lock_guard lock(mutex_);
    return sortedKeys(gauges_);
}

std::vector<std::string>
MetricsRegistry::histogramNames() const
{
    std::lock_guard lock(mutex_);
    return sortedKeys(histograms_);
}

bool
MetricsRegistry::empty() const
{
    std::lock_guard lock(mutex_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void
MetricsRegistry::clear()
{
    std::lock_guard lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
    // The slots pointed into the maps just cleared.
    for (CounterSlot &slot : counter_slots_)
        slot.value = nullptr;
    for (HistogramSlot &slot : histogram_slots_)
        slot.hist = nullptr;
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    visit([&os](const View &view) {
        os << "{\n  \"counters\": {";
        bool first = true;
        for (const auto &[name, value] : view.counters) {
            os << (first ? "\n" : ",\n") << "    " << json::quote(name)
               << ": " << value;
            first = false;
        }
        os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
        first = true;
        for (const auto &[name, value] : view.gauges) {
            os << (first ? "\n" : ",\n") << "    " << json::quote(name)
               << ": " << jsonNumber(value);
            first = false;
        }
        os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
        first = true;
        for (const auto &[name, hist] : view.histograms) {
            os << (first ? "\n" : ",\n") << "    " << json::quote(name)
               << ": {\"count\": " << hist.count()
               << ", \"mean\": " << jsonNumber(hist.mean())
               << ", \"min\": " << jsonNumber(hist.min())
               << ", \"max\": " << jsonNumber(hist.max())
               << ", \"p50\": " << jsonNumber(hist.p50())
               << ", \"p90\": " << jsonNumber(hist.p90())
               << ", \"p95\": " << jsonNumber(hist.p95())
               << ", \"p99\": " << jsonNumber(hist.p99())
               << ", \"buckets\": [";
            bool first_bucket = true;
            for (int b = 0; b < hist.bucketCount(); ++b) {
                if (hist.bucketHits(b) == 0)
                    continue;
                if (!first_bucket)
                    os << ", ";
                first_bucket = false;
                os << "[" << jsonNumber(hist.bucketLowerBound(b)) << ", "
                   << (b == hist.bucketCount() - 1
                           ? jsonNumber(hist.max())
                           : jsonNumber(hist.bucketUpperBound(b)))
                   << ", " << hist.bucketHits(b) << "]";
            }
            os << "]}";
            first = false;
        }
        os << (first ? "" : "\n  ") << "}\n}\n";
    });
}

std::string
MetricsRegistry::summaryTable() const
{
    TablePrinter table({"metric", "type", "count", "value/mean", "p50",
                        "p90", "p95", "p99", "max"});
    visit([&table](const View &view) {
        for (const auto &[name, value] : view.counters)
            table.addRow({name, "counter", "", std::to_string(value), "",
                          "", "", "", ""});
        for (const auto &[name, value] : view.gauges)
            table.addRow({name, "gauge", "", TablePrinter::num(value, 3),
                          "", "", "", "", ""});
        for (const auto &[name, hist] : view.histograms) {
            table.addRow({name, "histogram", std::to_string(hist.count()),
                          TablePrinter::num(hist.mean(), 6),
                          TablePrinter::num(hist.p50(), 6),
                          TablePrinter::num(hist.p90(), 6),
                          TablePrinter::num(hist.p95(), 6),
                          TablePrinter::num(hist.p99(), 6),
                          TablePrinter::num(hist.max(), 6)});
        }
    });
    return table.str();
}

} // namespace tt
