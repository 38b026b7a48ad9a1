/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--setup-only] [--record-goldens] [--find-knee]
 *
 * Run from the repository root: goldens are read from and recorded to
 * perfbench/goldens, spans and temp files go to .bench_out.
 *
 * Builds the workload's inputs from the seed (timed as set-up), then
 * repeats the workload's fixed work for S seconds. Every operation is
 * checked: its schedule must pass exec::validateSchedule, a simulated
 * outcome must equal the first pass's, and on the default seed it must
 * equal the recorded golden. The last line of stdout is the JSON
 * result: the end-to-end metrics with --trace 0, the per-layer
 * metrics (from passes run under the timing decorators, alternated
 * with untraced passes) with --trace 1. perfbench/run.py wraps this
 * binary; see perfbench/README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "reference.hh"
#include "workload.hh"

namespace pb {

const std::vector<MetricSpec> kLayerMetrics = {
    // The workloads' own outcomes (each applies to one workload).
    {"sim_s_per_wall_s", "ratio"},
    {"attempts_per_s_1w", "1/s"},
    {"dmtl_speedup", "ratio"},
    {"slo_attainment", "fraction"},
    {"sim_response_p99_us", "us"},
    {"sim_response_samples", "count"},
    // sim
    {"sim.events", "count"},
    {"sim.events_per_line", "ratio"},
    {"sim.event_ns", "ns"},
    // mem
    {"mem.line_ns_k1", "ns"},
    {"mem.line_ns_kn", "ns"},
    {"mem.lines", "count"},
    {"mem.row_hit_rate", "fraction"},
    {"mem.queue_wait_ns_per_line", "ns"},
    {"mem.bus_util", "fraction"},
    {"mem.peak_llc_bytes", "bytes"},
    {"mem.tm_ratio_dmtl", "ratio"},
    // cpu
    {"cpu.task_ns_per_line_solo", "ns"},
    {"cpu.task_ns_per_line_nway", "ns"},
    {"cpu.self_ns_per_line_solo", "ns"},
    {"cpu.self_ns_per_line_nway", "ns"},
    // simrt
    {"simrt.start_attempt_ns_p50", "ns"},
    {"simrt.start_attempt_ns_total", "ns"},
    {"simrt.timer_calls", "count"},
    // exec
    {"exec.ns_per_attempt_push", "ns"},
    {"exec.queue_wait_us_p50", "us"},
    {"exec.queue_wait_us_p99", "us"},
    // runtime, util/concurrency
    {"runtime.parks_per_attempt", "ratio"},
    {"runtime.wakes_per_attempt", "ratio"},
    {"runtime.pool_spawn_ms", "ms"},
    {"util.gate_admit_failures_per_admit", "ratio"},
    {"util.gate_folds", "count"},
    {"util.ring_peak_memory", "count"},
    {"util.ring_peak_compute", "count"},
    // core
    {"core.on_pair_calls", "count"},
    {"core.on_pair_ns_p50", "ns"},
    {"core.on_pair_ns_total", "ns"},
    {"core.current_mtl_calls", "count"},
    {"core.monitor_overhead_pct", "%"},
    {"core.probe_fraction", "fraction"},
    {"core.selections", "count"},
    {"core.model_abs_err_max", "ratio"},
    {"core.dmtl_err_vs_paper", "ratio"},
    // load
    {"load.admitted", "count"},
    {"load.delayed", "count"},
    {"load.shed", "count"},
    {"load.deadline_missed", "count"},
    {"load.decide_ns", "ns"},
    // obs
    {"obs.trace_record_ns_per_job", "ns"},
    {"obs.sampler_ns_per_job", "ns"},
    {"obs.live_export_ns_per_job", "ns"},
    {"obs.health_ns_per_job", "ns"},
    {"obs.spans", "count"},
    {"obs.timeseries_rows", "count"},
    // stream/workloads
    {"stream.graph_build_s", "s"},
    // Where each layer group's host time went, share of run wall.
    {"share.sim_mem_cpu_pct", "%"},
    {"share.simrt_pct", "%"},
    {"share.exec_pct", "%"},
    {"share.core_pct", "%"},
    {"share.load_pct", "%"},
    {"share.obs_pct", "%"},
    {"share.runtime_pct", "%"},
    // benchmark
    {"bench.trace_overhead_pct", "%"},
};

namespace {

/** Sum of the span self times charged to the backend interface. */
double
backendSelfNs(const TraceSummary &trace)
{
    double ns = 0.0;
    for (SpanName name :
         {kSpanBeginRun, kSpanStartAttempt, kSpanAfter, kSpanCancel,
          kSpanPairCompleted, kSpanRunDrained, kSpanFinalize})
        ns += static_cast<double>(trace.spans[name].self_ns);
    return ns;
}

} // namespace

void
simShares(const TraceSummary &trace, const LayerTimes &times,
          LayerValues &out)
{
    const auto self = [&](SpanName name) {
        return static_cast<double>(trace.spans[name].self_ns);
    };
    const double total = static_cast<double>(trace.spans[kSpanRun].total_ns);
    if (total <= 0.0)
        return;
    const double core = self(kSpanOnPair) + self(kSpanOnBackpressure);
    // The drive loop and the timer callbacks run the event kernel, the
    // engine's completion path and the program's obs/load work; the
    // layer estimates take their parts out, the rest is the simulator.
    const double inside = self(kSpanDrive) + self(kSpanTimerFire);
    const double sim = std::max(
        0.0, inside - times.exec_in_drive - times.load - times.obs);
    out["share.sim_mem_cpu_pct"] = 100.0 * sim / total;
    out["share.simrt_pct"] = 100.0 * backendSelfNs(trace) / total;
    out["share.exec_pct"] =
        100.0 * (times.exec_in_drive + self(kSpanRun)) / total;
    out["share.core_pct"] = 100.0 * core / total;
    out["share.load_pct"] = 100.0 * times.load / total;
    out["share.obs_pct"] = 100.0 * times.obs / total;
}

} // namespace pb

namespace {

using namespace pb;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload sim-closed|sim-open-obs|"
                 "host-dispatch --seed N --seconds S --trace 0|1\n"
                 "                 [--setup-only] [--record-goldens] "
                 "[--find-knee]\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            o.trace = value() == "1";
        else if (arg == "--setup-only")
            o.setup_only = true;
        else if (arg == "--record-goldens")
            o.record_goldens = true;
        else if (arg == "--find-knee")
            o.find_knee = true;
        else
            usage();
    }
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "sim-closed")
        return makeSimClosed();
    if (name == "sim-open-obs")
        return makeSimOpenObs();
    if (name == "host-dispatch")
        return makeHostDispatch();
    usage();
}

/** Fold one pass's checks into the run totals. */
class Checker
{
  public:
    Checker(const Options &options)
        : options_(options),
          goldens_(options.seed == kDefaultSeed
                       ? loadGoldens(options.goldens_dir, options.workload)
                       : Goldens{})
    {
    }

    void
    add(const Pass &pass)
    {
        attempted_ += pass.ops;
        failed_ += pass.failed;
        for (const std::string &e : pass.errors)
            report(e);
        if (reference_.empty() && !pass.prints.empty()) {
            reference_ = pass.prints;
            if (options_.record_goldens &&
                !saveGoldens(options_.goldens_dir, options_.workload,
                             reference_))
                report("cannot write goldens");
        }
        for (std::size_t i = 0; i < pass.prints.size(); ++i) {
            const Fingerprint &fp = pass.prints[i];
            std::string why;
            if (!fp.ok)
                why = "run or schedule check failed";
            else if (i >= reference_.size() ||
                     reference_[i].value != fp.value)
                why = "differs from the first pass";
            else if (!goldens_.empty() && !options_.record_goldens &&
                     goldens_[fp.key] != fp.value)
                why = "differs from the golden";
            if (!why.empty()) {
                ++failed_;
                report(fp.key + ": " + why);
            }
        }
    }

    long attempted() const { return attempted_; }
    long failed() const { return failed_; }

  private:
    void
    report(const std::string &what)
    {
        if (reported_++ < 10)
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }

    const Options &options_;
    Goldens goldens_;
    std::vector<Fingerprint> reference_;
    long attempted_ = 0;
    long failed_ = 0;
    int reported_ = 0;
};

/**
 * Run timings of the passes of one kind. Each program run of a pass
 * gets its own median wall over the passes; the pass's wall is their
 * sum, so one slow stretch of the machine affects only the runs it
 * overlapped.
 */
struct Timings
{
    int passes = 0;
    std::vector<std::vector<double>> walls; ///< per run, per pass
    std::vector<RunTiming> last;

    void
    add(const Pass &pass)
    {
        walls.resize(pass.runs.size());
        for (std::size_t i = 0; i < pass.runs.size(); ++i)
            walls[i].push_back(pass.runs[i].wall_s);
        last = pass.runs;
        ++passes;
        double wall = 0.0;
        for (const RunTiming &r : pass.runs)
            wall += r.wall_s;
        std::fprintf(stderr, "pass %d%s: %.6f s\n", passes,
                     pass.traced ? " (traced)" : "", wall);
    }

    double
    wall() const
    {
        double sum = 0.0;
        for (const auto &w : walls)
            sum += median(w);
        return sum;
    }

    double
    attemptsPerSecond() const
    {
        double attempts = 0.0;
        double seconds = 0.0;
        for (std::size_t i = 0; i < last.size(); ++i) {
            if (!last[i].in_rate)
                continue;
            attempts += static_cast<double>(last[i].attempts);
            seconds += median(walls[i]);
        }
        return attempts / seconds;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    if (options.workload.empty())
        usage();
    std::filesystem::create_directories(options.out_dir);
    if (options.find_knee)
        return findKnee(options);
    auto workload = makeWorkload(options.workload);

    // Set-up is single-threaded in every workload: report it at the
    // reference speed measured around it (see reference.hh).
    for (int i = 0; i < 8; ++i)
        sampleReference();
    const double setup_start = wallSeconds();
    workload->setup(options);
    const double setup_s =
        (wallSeconds() - setup_start) / referenceSlowdown();
    if (options.setup_only) {
        std::printf("setup_s %.9f\n", setup_s);
        return 0;
    }

    // Repeat the fixed work; with --trace 1, alternate untraced and
    // traced passes so both see the same machine conditions.
    Checker checker(options);
    Timings untraced;
    Timings traced_timings;
    const double start = wallSeconds();
    for (int i = 0;; ++i) {
        const bool traced = options.trace && i % 2 == 1;
        const Pass pass = workload->runPass(traced);
        checker.add(pass);
        (traced ? traced_timings : untraced).add(pass);
        const bool enough = untraced.passes >= 3 &&
                            (!options.trace || traced_timings.passes >= 2);
        if (enough && wallSeconds() - start >= options.seconds)
            break;
    }
    const double wall_s = untraced.wall();

    LayerValues values;
    for (const MetricSpec &spec : kLayerMetrics)
        values[spec.name] = 0.0;
    workload->outcomes(wall_s, values);

    Metrics metrics;
    if (options.trace) {
        // Span metrics first: the isolated drivers that layers() runs
        // record spans of their own.
        TraceSummary trace;
        trace.traced_passes = traced_timings.passes;
        trace.spans = spanTotals();
        const double passes = trace.traced_passes;
        const auto &on_pair = trace.spans[kSpanOnPair];
        const auto &start_attempt = trace.spans[kSpanStartAttempt];
        const auto durations = [](SpanName name) {
            std::vector<double> out;
            for (std::int64_t ns : spanDurations(name))
                out.push_back(static_cast<double>(ns));
            return out;
        };
        values["core.on_pair_calls"] = on_pair.count / passes;
        values["core.on_pair_ns_total"] = on_pair.total_ns / passes;
        values["core.on_pair_ns_p50"] = median(durations(kSpanOnPair));
        values["core.monitor_overhead_pct"] =
            100.0 *
            static_cast<double>(on_pair.self_ns +
                                trace.spans[kSpanOnBackpressure].self_ns) /
            static_cast<double>(trace.spans[kSpanRun].total_ns);
        values["simrt.start_attempt_ns_total"] =
            start_attempt.total_ns / passes;
        values["simrt.start_attempt_ns_p50"] =
            median(durations(kSpanStartAttempt));
        values["bench.trace_overhead_pct"] =
            100.0 * (traced_timings.wall() / wall_s - 1.0);
        const std::string spans_path =
            options.out_dir + "/spans-" + options.workload + ".tsv";
        if (!writeSpans(spans_path))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         spans_path.c_str());
        workload->layers(trace, values);
        for (const MetricSpec &spec : kLayerMetrics)
            metrics.add(spec.name, values[spec.name], spec.unit);
    } else {
        // The workload's own figures, as context for the result line.
        for (const MetricSpec &spec : kLayerMetrics)
            if (values[spec.name] != 0.0)
                std::printf("%-36s %16.6f %s\n", spec.name,
                            values[spec.name], spec.unit);
        // Timings at the reference machine speed (see reference.hh).
        const double slowdown =
            workload->scaledToReference() ? referenceSlowdown() : 1.0;
        std::printf("%-36s %16.6f %s\n", "machine_slowdown", slowdown,
                    "ratio");
        std::printf("%-36s %16.6f %s\n", "measured_wall_s", wall_s, "s");
        metrics.add("setup_s", setup_s, "s");
        metrics.add("wall_s", wall_s / slowdown, "s");
        metrics.add("attempts_per_s",
                    untraced.attemptsPerSecond() * slowdown, "1/s");
        metrics.add("peak_rss_mb", peakRssMb(), "MB");
    }
    std::printf("passes %d untraced, %d traced; %ld operations, "
                "%ld failed\n",
                untraced.passes, traced_timings.passes, checker.attempted(),
                checker.failed());
    metrics.print(checker.failed() == 0, checker.attempted(),
                  checker.failed());
    return 0;
}
