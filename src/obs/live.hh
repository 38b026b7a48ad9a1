/**
 * @file
 * Live telemetry: OpenMetrics rendering of a MetricsRegistry plus
 * the two delivery mechanisms behind `ttsim --live-metrics PATH`.
 *
 * Every other observability surface (ttreport, metrics JSON, Chrome
 * traces, time series) is post-mortem -- written after the run
 * drains. This module exposes the registry *while the run is live*:
 *
 *  - openMetricsText() renders a snapshot in the OpenMetrics text
 *    format (counters as `_total`, gauges, histograms as summaries
 *    with p50/p90/p95/p99 quantile lines, `# EOF` terminator). The
 *    render is one walk of the registry under its mutex, into
 *    memory; the sinks write the file or socket after it.
 *
 *  - LiveMetricsServer serves snapshots over a Unix-domain socket
 *    from a background thread (host backend: real time, poll on
 *    demand). The protocol is trivial: connect, read one snapshot
 *    to EOF. `ttstat` is the bundled client.
 *
 *  - LiveFileSink rewrites a snapshot file atomically (write tmp +
 *    rename); the engine drives it on backend timers, which on the
 *    sim backend yields periodic *simulated-time* snapshots.
 *
 * Both sinks charge their rendering cost to the
 * `obs.overhead.live_export_ns` counter so the observability layer
 * reports its own cost.
 */

#ifndef TT_OBS_LIVE_HH
#define TT_OBS_LIVE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace tt {
class MetricsRegistry;
}

namespace tt::obs {

/**
 * Sanitize a registry metric name for OpenMetrics: characters
 * outside [a-zA-Z0-9_:] become '_' ("runtime.tm_seconds.mtl=4" ->
 * "runtime_tm_seconds_mtl_4"); a leading digit gains a '_' prefix.
 */
std::string openMetricsName(const std::string &name);

/**
 * Render every metric in `metrics` as OpenMetrics text. When
 * `snapshot_seconds` is >= 0 an extra `obs_snapshot_time_seconds`
 * gauge stamps the engine-clock snapshot time.
 */
std::string openMetricsText(const MetricsRegistry &metrics,
                            double snapshot_seconds = -1.0);

/**
 * Periodic OpenMetrics file snapshots. snapshot() renders to
 * `path + ".tmp"` and renames over `path`, so a concurrent reader
 * (ttstat in file mode) never sees a torn snapshot. A write failure
 * warns once and latches ok() false without failing the run; later
 * snapshots then return at once.
 */
class LiveFileSink
{
  public:
    /** `metrics` is borrowed and must outlive the sink. */
    LiveFileSink(std::string path, MetricsRegistry &metrics);

    /** Rewrite the snapshot file; `now_seconds` stamps it. */
    void snapshot(double now_seconds);

    const std::string &path() const { return path_; }
    std::uint64_t snapshots() const { return snapshots_; }
    bool ok() const { return ok_; }

  private:
    std::string path_;
    MetricsRegistry &metrics_;
    std::uint64_t snapshots_ = 0;
    bool ok_ = true;
};

/**
 * Unix-domain-socket OpenMetrics endpoint. start() binds `path`
 * (unlinking any stale socket), listens, and spawns one background
 * thread; every accepted connection receives one snapshot and is
 * closed. stop() (also run by the destructor) joins the thread and
 * unlinks the socket. The registry is thread-safe, so serving
 * concurrently with a live run is sound.
 */
class LiveMetricsServer
{
  public:
    /** `metrics` is borrowed and must outlive the server. */
    LiveMetricsServer(std::string path, MetricsRegistry &metrics);
    ~LiveMetricsServer();

    LiveMetricsServer(const LiveMetricsServer &) = delete;
    LiveMetricsServer &operator=(const LiveMetricsServer &) = delete;

    /** Bind + listen + spawn; false (and error()) on failure. */
    bool start();

    /** Stop serving, join the thread, unlink the socket. */
    void stop();

    const std::string &path() const { return path_; }
    const std::string &error() const { return error_; }

  private:
    void serveLoop();

    std::string path_;
    MetricsRegistry &metrics_;
    std::string error_;
    int listen_fd_ = -1;
    std::thread thread_;
    std::atomic<bool> stop_{false};
};

} // namespace tt::obs

#endif // TT_OBS_LIVE_HH
