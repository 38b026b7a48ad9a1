#include "report.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

namespace pb {

void
Metrics::add(const std::string &name, double value, const std::string &unit)
{
    entries_.push_back(Entry{name, value, unit});
}

void
Metrics::print(bool correct, long attempted, long failed) const
{
    for (const Entry &e : entries_)
        std::printf("%-36s %16.6f %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        const double v = std::isfinite(e.value) ? e.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i > 0 ? ", " : "", e.name.c_str(), v, e.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

namespace {

/** Appends `field=value` pairs to build Fingerprint::value. */
class FingerprintBuilder
{
  public:
    FingerprintBuilder &add(const char *field, double v);
    FingerprintBuilder &add(const char *field, std::uint64_t v);
    std::string str() const { return out_; }

  private:
    std::string out_;
};

FingerprintBuilder &
FingerprintBuilder::add(const char *field, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%.17g ", field, v);
    out_ += buf;
    return *this;
}

FingerprintBuilder &
FingerprintBuilder::add(const char *field, std::uint64_t v)
{
    out_ += field;
    out_ += '=';
    out_ += std::to_string(v);
    out_ += ' ';
    return *this;
}

/** FNV-1a over the bytes of `n` doubles. */
std::uint64_t
hashDoubles(const double *data, std::size_t n,
            std::uint64_t h = 1469598103934665603ULL)
{
    const auto *bytes = reinterpret_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n * sizeof(double); ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace

std::string
simOutcome(const tt::exec::RunResult &r, const tt::mem::ChannelStats &dram,
           std::uint64_t events)
{
    std::uint64_t samples = 1469598103934665603ULL;
    for (const auto &s : r.samples) {
        const double v[4] = {s.tm, s.tc, s.end_time,
                             static_cast<double>(s.mtl)};
        samples = hashDoubles(v, 4, samples);
    }
    std::vector<double> shed;
    for (const auto &job : r.jobs)
        if (job.decision == tt::load::AdmissionDecision::Shed)
            shed.push_back(job.pair);
    const int final_mtl =
        r.mtl_trace.empty() ? 0 : r.mtl_trace.back().second;
    FingerprintBuilder fp;
    fp.add("makespan", r.seconds)
        .add("final_mtl", static_cast<std::uint64_t>(final_mtl))
        .add("mtl_switches", static_cast<std::uint64_t>(r.mtl_trace.size()))
        .add("selections",
             static_cast<std::uint64_t>(r.policy_stats.selections))
        .add("samples", samples)
        .add("events", events)
        .add("dram_reads", dram.reads)
        .add("dram_writes", dram.writes)
        .add("row_hits", dram.row_hits)
        .add("queue_wait", dram.queue_wait_ticks)
        .add("bus_busy", static_cast<std::uint64_t>(dram.busy_ticks))
        .add("peak_llc", r.peak_llc_occupancy);
    if (r.jobs_offered > 0) {
        fp.add("admitted", static_cast<std::uint64_t>(r.jobs_admitted))
            .add("shed", static_cast<std::uint64_t>(r.jobs_shed))
            .add("missed",
                 static_cast<std::uint64_t>(r.jobs_deadline_missed))
            .add("shed_set", hashDoubles(shed.data(), shed.size()))
            .add("resp_p50", quantile(r.response_seconds, 0.50))
            .add("resp_p99", quantile(r.response_seconds, 0.99));
    }
    return fp.str();
}

Goldens
loadGoldens(const std::string &dir, const std::string &workload)
{
    Goldens out;
    std::ifstream in(dir + "/" + workload + ".tsv");
    std::string line;
    while (std::getline(in, line)) {
        const auto tab = line.find('\t');
        if (tab != std::string::npos)
            out[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return out;
}

bool
saveGoldens(const std::string &dir, const std::string &workload,
            const std::vector<Fingerprint> &prints)
{
    std::ofstream out(dir + "/" + workload + ".tsv");
    for (const Fingerprint &fp : prints)
        out << fp.key << '\t' << fp.value << '\n';
    return static_cast<bool>(out);
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(xs.size())));
    return xs[std::min(xs.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KB on Linux
}

std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace pb
