#include "obs/live.hh"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/logging.hh"
#include "util/stats.hh"

namespace tt::obs {

namespace {

void
writeQuantile(std::ostream &os, const std::string &name, double q,
              double value)
{
    os << name << "{quantile=\"" << q << "\"} " << value << "\n";
}

} // namespace

std::string
openMetricsName(const std::string &name)
{
    std::string out;
    out.reserve(name.size() + 1);
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    if (out.empty())
        out = "_";
    if (std::isdigit(static_cast<unsigned char>(out.front())))
        out.insert(out.begin(), '_');
    return out;
}

std::string
openMetricsText(const MetricsRegistry &metrics, double snapshot_seconds)
{
    // One walk under the registry mutex renders into memory; the
    // caller writes the file after the lock is released.
    std::ostringstream os;
    metrics.visit([&os](const MetricsRegistry::View &view) {
        for (const auto &[raw, value] : view.counters) {
            const std::string name = openMetricsName(raw);
            os << "# TYPE " << name << " counter\n";
            os << name << "_total " << value << "\n";
        }
        for (const auto &[raw, value] : view.gauges) {
            const std::string name = openMetricsName(raw);
            os << "# TYPE " << name << " gauge\n";
            os << name << " " << value << "\n";
        }
        for (const auto &[raw, h] : view.histograms) {
            const std::string name = openMetricsName(raw);
            os << "# TYPE " << name << " summary\n";
            writeQuantile(os, name, 0.5, h.p50());
            writeQuantile(os, name, 0.9, h.p90());
            writeQuantile(os, name, 0.95, h.p95());
            writeQuantile(os, name, 0.99, h.p99());
            os << name << "_sum " << h.sum() << "\n";
            os << name << "_count " << h.count() << "\n";
        }
    });
    if (snapshot_seconds >= 0.0) {
        os << "# TYPE obs_snapshot_time_seconds gauge\n";
        os << "obs_snapshot_time_seconds " << snapshot_seconds << "\n";
    }
    os << "# EOF\n";
    return os.str();
}

LiveFileSink::LiveFileSink(std::string path, MetricsRegistry &metrics)
    : path_(std::move(path)), metrics_(metrics)
{
}

void
LiveFileSink::snapshot(double now_seconds)
{
    if (!ok_)
        return; // a failed write disabled the sink
    const std::uint64_t t0 = wallNanos();
    const std::string text = openMetricsText(metrics_, now_seconds);
    const std::string tmp = path_ + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        os << text;
        if (!os) {
            tt_warn("live-metrics snapshot to '", tmp,
                    "' failed; disabling further snapshots");
            ok_ = false;
            return;
        }
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        tt_warn("live-metrics rename to '", path_,
                "' failed; disabling further snapshots");
        ok_ = false;
        return;
    }
    ++snapshots_;
    metrics_.add("obs.overhead.live_export_ns",
                 static_cast<std::int64_t>(wallNanos() - t0));
}

} // namespace tt::obs
