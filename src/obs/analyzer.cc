#include "obs/analyzer.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <queue>
#include <sstream>

#include "core/analytical_model.hh"
#include "util/table.hh"

namespace tt::obs {

namespace {

/** Exact quantile of an ascending-sorted vector (linear interp). */
double
sortedQuantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

} // namespace

DistSummary
summarize(std::vector<double> samples)
{
    DistSummary out;
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    out.count = samples.size();
    double sum = 0.0;
    for (double x : samples)
        sum += x;
    out.mean = sum / static_cast<double>(samples.size());
    out.p50 = sortedQuantile(samples, 0.50);
    out.p95 = sortedQuantile(samples, 0.95);
    out.p99 = sortedQuantile(samples, 0.99);
    out.min = samples.front();
    out.max = samples.back();
    return out;
}

namespace {

/**
 * Concurrency at dispatch for each memory event: the number of memory
 * tasks in flight (start <= t < end, including the event itself) at
 * its start. Sweep in start order with a min-heap of end times.
 */
std::vector<std::pair<double, double>> // (b, tm) samples
concurrencySamples(std::vector<const TaskEvent *> memory_events)
{
    std::sort(memory_events.begin(), memory_events.end(),
              [](const TaskEvent *a, const TaskEvent *b) {
                  return a->start < b->start;
              });
    std::priority_queue<double, std::vector<double>,
                        std::greater<double>>
        ends;
    std::vector<std::pair<double, double>> samples;
    samples.reserve(memory_events.size());
    for (const TaskEvent *e : memory_events) {
        while (!ends.empty() && ends.top() <= e->start)
            ends.pop();
        samples.emplace_back(static_cast<double>(ends.size() + 1),
                             e->end - e->start);
        ends.push(e->end);
    }
    return samples;
}

QueueFit
fitQueueModel(const std::vector<std::pair<double, double>> &samples)
{
    QueueFit fit;
    fit.samples = samples.size();
    if (samples.size() < 2)
        return fit;
    double mean_b = 0.0;
    double mean_tm = 0.0;
    for (const auto &[b, tm] : samples) {
        mean_b += b;
        mean_tm += tm;
    }
    mean_b /= static_cast<double>(samples.size());
    mean_tm /= static_cast<double>(samples.size());
    double var_b = 0.0;
    double cov = 0.0;
    for (const auto &[b, tm] : samples) {
        var_b += (b - mean_b) * (b - mean_b);
        cov += (b - mean_b) * (tm - mean_tm);
    }
    fit.mean_b = mean_b;
    if (var_b <= 0.0)
        return fit; // the run never varied its concurrency
    fit.tql = cov / var_b;
    fit.tml = mean_tm - fit.tql * mean_b;
    fit.valid = std::isfinite(fit.tql) && std::isfinite(fit.tml);
    return fit;
}

/** Wall time each MTL was in force within [begin, end). */
std::map<int, double>
mtlWallTime(const std::vector<std::pair<double, int>> &mtl_trace,
            double begin, double end)
{
    std::map<int, double> wall;
    for (std::size_t i = 0; i < mtl_trace.size(); ++i) {
        const double seg_begin = mtl_trace[i].first;
        const double seg_end = i + 1 < mtl_trace.size()
                                   ? mtl_trace[i + 1].first
                                   : end;
        const double lo = std::max(begin, seg_begin);
        const double hi = std::min(end, seg_end);
        if (hi > lo)
            wall[mtl_trace[i].second] += hi - lo;
    }
    return wall;
}

/** Running CounterStats accumulator over trace events. */
struct CounterAccumulator
{
    CounterStats stats;

    void
    add(const TaskEvent &e)
    {
        if (!e.has_counters)
            return;
        stats.present = true;
        stats.llc_misses += e.counters.llc_misses;
        stats.cycles += e.counters.cycles;
        stats.stalled_cycles += e.counters.stalled_cycles;
        stats.instructions += e.counters.instructions;
    }

    /** Derive the interference ratios from the raw sums. */
    CounterStats
    finish(double miss_latency_cycles) const
    {
        CounterStats out = stats;
        if (out.instructions > 0)
            out.mpki = 1e3 * static_cast<double>(out.llc_misses) /
                       static_cast<double>(out.instructions);
        if (out.cycles > 0)
            out.stall_share =
                static_cast<double>(out.stalled_cycles) /
                static_cast<double>(out.cycles);
        if (out.llc_misses > 0)
            out.stalls_per_miss =
                static_cast<double>(out.stalled_cycles) /
                static_cast<double>(out.llc_misses);
        if (out.stalled_cycles > 0)
            out.achieved_mlp =
                static_cast<double>(out.llc_misses) *
                miss_latency_cycles /
                static_cast<double>(out.stalled_cycles);
        return out;
    }
};

ModelValidation
validatePhase(const PhaseReport &phase, int cores)
{
    ModelValidation v;
    if (cores < 1 || phase.pairs <= 0 || phase.by_mtl.empty())
        return v;
    // Dominant MTL: the one the phase spent the most wall time under
    // (falling back to most pairs when the MTL trace is empty).
    const MtlAttribution *dominant = &phase.by_mtl.front();
    for (const auto &attr : phase.by_mtl)
        if (attr.wall_seconds > dominant->wall_seconds ||
            (attr.wall_seconds == dominant->wall_seconds &&
             attr.pairs > dominant->pairs))
            dominant = &attr;
    v.mtl = dominant->mtl;
    v.tm_k = dominant->tm.mean;
    v.tc = phase.tc.mean;
    if (v.mtl < 1 || v.mtl > cores || v.tm_k <= 0.0)
        return v;
    // T_mn: prefer a direct measurement at MTL=n from this phase,
    // else extrapolate the queue fit to n competitors.
    for (const auto &attr : phase.by_mtl)
        if (attr.mtl == cores && attr.tm.count > 0) {
            v.tm_n = attr.tm.mean;
            v.tm_n_measured = true;
        }
    if (!v.tm_n_measured) {
        if (!phase.queue_fit.valid)
            return v;
        const core::QueuingModel model{phase.queue_fit.tml,
                                       phase.queue_fit.tql};
        v.tm_n = model.tmAt(cores);
    }
    if (v.tm_n <= 0.0)
        return v;
    v.predicted_speedup = core::AnalyticalModel::speedup(
        v.tm_k, v.tm_n, v.tc, v.mtl, cores);
    // "Measured" speedup: the model's estimated unthrottled phase
    // time over the phase's actual wall time.
    const double duration = phase.end - phase.start;
    if (duration <= 0.0)
        return v;
    const double unthrottled = core::AnalyticalModel::execTime(
        v.tm_n, v.tc, static_cast<int>(phase.pairs), cores, cores);
    v.measured_speedup = unthrottled / duration;
    v.abs_error = std::fabs(v.predicted_speedup - v.measured_speedup);
    v.valid = std::isfinite(v.predicted_speedup) &&
              std::isfinite(v.measured_speedup) &&
              v.predicted_speedup > 0.0 && v.measured_speedup > 0.0;
    return v;
}

} // namespace

Report
analyze(const TraceData &data, const AnalyzeOptions &options)
{
    Report report;
    report.policy = options.policy;
    report.cores = options.cores;
    report.trace_events = data.events.size();
    report.trace_dropped = options.trace_dropped;

    double last_end = 0.0;
    for (const TaskEvent &e : data.events)
        last_end = std::max(last_end, e.end);
    report.makespan =
        options.makespan > 0.0 ? options.makespan : last_end;

    // ---- per-phase attribution -------------------------------------
    std::map<int, std::vector<const TaskEvent *>> by_phase;
    for (const TaskEvent &e : data.events)
        by_phase[e.phase].push_back(&e);

    for (const auto &[phase_id, events] : by_phase) {
        PhaseReport phase;
        phase.phase = phase_id;
        if (phase_id >= 0 &&
            phase_id < static_cast<int>(data.phase_names.size()))
            phase.name = data.phase_names[phase_id];
        else
            phase.name = "phase" + std::to_string(phase_id);

        phase.start = events.front()->start;
        phase.end = events.front()->end;
        std::vector<double> tm_all;
        std::vector<double> tc_all;
        std::map<int, std::vector<double>> tm_by_mtl;
        std::map<int, std::vector<double>> tc_by_mtl;
        std::map<int, long> pairs_by_mtl;
        std::vector<const TaskEvent *> memory_events;
        CounterAccumulator phase_counters;
        std::map<int, CounterAccumulator> counters_by_mtl;
        for (const TaskEvent *e : events) {
            phase.start = std::min(phase.start, e->start);
            phase.end = std::max(phase.end, e->end);
            const double duration = e->end - e->start;
            phase_counters.add(*e);
            if (e->has_counters)
                counters_by_mtl[e->mtl].add(*e);
            if (e->is_memory) {
                tm_all.push_back(duration);
                tm_by_mtl[e->mtl].push_back(duration);
                ++pairs_by_mtl[e->mtl];
                memory_events.push_back(e);
            } else {
                tc_all.push_back(duration);
                tc_by_mtl[e->mtl].push_back(duration);
            }
        }
        phase.pairs = static_cast<long>(tm_all.size());
        phase.tm = summarize(std::move(tm_all));
        phase.tc = summarize(std::move(tc_all));

        const std::map<int, double> wall =
            mtlWallTime(data.mtl_trace, phase.start, phase.end);
        std::map<int, MtlAttribution> attrs;
        for (auto &[mtl, samples] : tm_by_mtl) {
            MtlAttribution &attr = attrs[mtl];
            attr.mtl = mtl;
            attr.pairs = pairs_by_mtl[mtl];
            attr.tm = summarize(std::move(samples));
        }
        for (auto &[mtl, samples] : tc_by_mtl) {
            MtlAttribution &attr = attrs[mtl];
            attr.mtl = mtl;
            attr.tc = summarize(std::move(samples));
        }
        for (const auto &[mtl, seconds] : wall)
            attrs[mtl].mtl = mtl, attrs[mtl].wall_seconds = seconds;
        for (const auto &[mtl, acc] : counters_by_mtl) {
            attrs[mtl].mtl = mtl;
            attrs[mtl].counters =
                acc.finish(options.miss_latency_cycles);
        }
        for (auto &[mtl, attr] : attrs)
            phase.by_mtl.push_back(std::move(attr));

        phase.counters =
            phase_counters.finish(options.miss_latency_cycles);
        phase.queue_fit =
            fitQueueModel(concurrencySamples(std::move(memory_events)));
        phase.validation = validatePhase(phase, options.cores);
        report.phases.push_back(std::move(phase));
    }

    // ---- whole-run interference totals -----------------------------
    CounterAccumulator run_counters;
    for (const TaskEvent &e : data.events)
        run_counters.add(e);
    report.counters = run_counters.finish(options.miss_latency_cycles);
    report.has_counters = report.counters.present;

    // ---- per-worker accounting -------------------------------------
    std::map<int, std::vector<const TaskEvent *>> by_worker;
    for (const TaskEvent &e : data.events)
        by_worker[e.worker].push_back(&e);
    for (auto &[worker, events] : by_worker) {
        std::sort(events.begin(), events.end(),
                  [](const TaskEvent *a, const TaskEvent *b) {
                      return a->start < b->start;
                  });
        WorkerReport wr;
        wr.worker = worker;
        wr.events = events.size();
        double prev_end = -1.0;
        for (const TaskEvent *e : events) {
            wr.busy += e->end - e->start;
            if (prev_end >= 0.0 && e->start > prev_end)
                wr.stall += e->start - prev_end;
            prev_end = std::max(prev_end, e->end);
        }
        wr.idle =
            std::max(0.0, report.makespan - wr.busy - wr.stall);
        report.workers.push_back(wr);
    }

    // ---- overhead + audit ------------------------------------------
    const core::PolicyStats &stats = options.policy_stats;
    report.overhead.pairs_observed = stats.pairs_observed;
    report.overhead.probe_pairs = stats.probe_pairs;
    report.overhead.stale_pairs = stats.stale_pairs;
    report.overhead.fallbacks = stats.fallbacks;
    if (stats.pairs_observed > 0) {
        report.overhead.probe_fraction =
            static_cast<double>(stats.probe_pairs) /
            static_cast<double>(stats.pairs_observed);
        report.overhead.stale_fraction =
            static_cast<double>(stats.stale_pairs) /
            static_cast<double>(stats.pairs_observed);
    }
    report.overhead.decisions =
        static_cast<long>(data.decisions.size());
    report.decisions = data.decisions;

    // ---- critical-path attribution from job spans ------------------
    if (!data.spans.empty()) {
        report.critical_path.valid = true;
        std::map<int, std::vector<const JobSpan *>> by_priority;
        for (const JobSpan &span : data.spans) {
            if (span.attempts.empty()) {
                ++report.critical_path.shed;
                continue;
            }
            ++report.critical_path.jobs;
            by_priority[span.priority].push_back(&span);
        }
        for (const auto &[priority, spans] : by_priority) {
            CriticalPathClass cls;
            cls.priority = priority;
            cls.jobs = static_cast<long>(spans.size());
            std::vector<double> responses;
            responses.reserve(spans.size());
            for (const JobSpan *span : spans) {
                const CriticalPath &cp = span->critical_path;
                responses.push_back(cp.response);
                cls.admission += cp.admission;
                cls.queue_wait += cp.queue_wait;
                cls.compute += cp.compute;
                cls.mem_stall += cp.mem_stall;
                cls.retry_backoff += cp.retry_backoff;
            }
            const double n = static_cast<double>(spans.size());
            cls.admission /= n;
            cls.queue_wait /= n;
            cls.compute /= n;
            cls.mem_stall /= n;
            cls.retry_backoff /= n;
            cls.response = summarize(std::move(responses));
            report.critical_path.classes.push_back(std::move(cls));
        }
    }

    // Health-alert summary: aggregate the edge stream per detector in
    // first-appearance order, so the rule list is deterministic for a
    // deterministic alert sequence. A rule with more fires than
    // clears was still active when the run drained.
    if (data.health_enabled) {
        report.health.valid = true;
        report.health.alerts =
            static_cast<std::uint64_t>(data.alerts.size());
        report.health.alerts_dropped = data.alerts_dropped;
        for (const AlertEvent &alert : data.alerts) {
            HealthRuleSummary *summary = nullptr;
            for (HealthRuleSummary &r : report.health.rules)
                if (r.rule == alert.rule) {
                    summary = &r;
                    break;
                }
            if (summary == nullptr) {
                report.health.rules.push_back(
                    {alert.rule, alertSeverityName(alert.severity), 0,
                     0, false});
                summary = &report.health.rules.back();
            }
            if (alert.edge == AlertEdge::Fired) {
                ++summary->fired;
                if (alert.severity == AlertSeverity::Critical)
                    ++report.health.critical_fired;
            } else {
                ++summary->cleared;
            }
        }
        for (HealthRuleSummary &r : report.health.rules) {
            r.active = r.fired > r.cleared;
            if (r.active && r.severity ==
                                alertSeverityName(
                                    AlertSeverity::Critical))
                report.health.critical_active = true;
        }
    }
    return report;
}

// ---- JSON rendering ------------------------------------------------

namespace {

std::string
jsonNum(double value)
{
    if (!std::isfinite(value))
        return "0";
    std::ostringstream os;
    os << std::setprecision(12) << value;
    return os.str();
}

void
writeDist(const DistSummary &d, std::ostream &os)
{
    os << "{\"count\": " << d.count << ", \"mean\": " << jsonNum(d.mean)
       << ", \"p50\": " << jsonNum(d.p50)
       << ", \"p95\": " << jsonNum(d.p95)
       << ", \"p99\": " << jsonNum(d.p99)
       << ", \"min\": " << jsonNum(d.min)
       << ", \"max\": " << jsonNum(d.max) << "}";
}

void
writeCounters(const CounterStats &c, std::ostream &os)
{
    os << "{\"llc_misses\": " << c.llc_misses
       << ", \"cycles\": " << c.cycles
       << ", \"stalled_cycles\": " << c.stalled_cycles
       << ", \"instructions\": " << c.instructions
       << ", \"mpki\": " << jsonNum(c.mpki)
       << ", \"stall_share\": " << jsonNum(c.stall_share)
       << ", \"stalls_per_miss\": " << jsonNum(c.stalls_per_miss)
       << ", \"achieved_mlp\": " << jsonNum(c.achieved_mlp) << "}";
}

void
writeDecision(const core::MtlDecision &d, std::ostream &os)
{
    os << "{\"time\": " << jsonNum(d.time)
       << ", \"reason\": " << json::quote(decisionReasonName(d.reason))
       << ", \"from_mtl\": " << d.from_mtl
       << ", \"to_mtl\": " << d.to_mtl
       << ", \"window_tm\": " << jsonNum(d.window_tm)
       << ", \"window_tc\": " << jsonNum(d.window_tc)
       << ", \"idle_bound\": " << d.idle_bound
       << ", \"mtl_no_idle\": " << d.mtl_no_idle
       << ", \"mtl_idle\": " << d.mtl_idle
       << ", \"rank_no_idle\": " << jsonNum(d.rank_no_idle)
       << ", \"rank_idle\": " << jsonNum(d.rank_idle)
       << ", \"predicted_speedup\": " << jsonNum(d.predicted_speedup)
       << ", \"probes_used\": " << d.probes_used
       << ", \"probed_mtls\": [";
    for (std::size_t i = 0; i < d.probed_mtls.size(); ++i)
        os << (i > 0 ? ", " : "") << d.probed_mtls[i];
    os << "], \"degraded\": " << (d.degraded ? "true" : "false")
       << "}";
}

} // namespace

void
writeReportJson(const Report &report, std::ostream &os)
{
    os << "{\n  \"policy\": " << json::quote(report.policy)
       << ",\n  \"cores\": " << report.cores
       << ",\n  \"makespan\": " << jsonNum(report.makespan)
       << ",\n  \"trace\": {\"events\": " << report.trace_events
       << ", \"dropped\": " << report.trace_dropped << "}";

    // Counter sections appear only on runs that carried counters, so
    // reports written before this schema existed (or without a
    // provider) stay byte-compatible -- diffReports() tolerates the
    // absence on either side.
    if (report.has_counters) {
        os << ",\n  \"counters\": ";
        writeCounters(report.counters, os);
    }

    // The SLO section exists only for open-loop sweeps, with the same
    // both-sides-or-skip diff contract as the counters section.
    if (report.slo.valid) {
        const SloReport &s = report.slo;
        os << ",\n  \"slo\": {\"slo_seconds\": "
           << jsonNum(s.slo_seconds)
           << ", \"knee_rate\": " << jsonNum(s.knee_rate)
           << ", \"points\": [";
        for (std::size_t i = 0; i < s.points.size(); ++i) {
            const SloPoint &p = s.points[i];
            os << (i > 0 ? ",\n    " : "\n    ");
            os << "{\"offered_rate\": " << jsonNum(p.offered_rate)
               << ", \"offered\": " << p.offered
               << ", \"admitted\": " << p.admitted
               << ", \"shed\": " << p.shed
               << ", \"missed\": " << p.missed
               << ", \"shed_rate\": " << jsonNum(p.shed_rate)
               << ", \"p50\": " << jsonNum(p.p50)
               << ", \"p95\": " << jsonNum(p.p95)
               << ", \"p99\": " << jsonNum(p.p99)
               << ", \"attainment\": " << jsonNum(p.attainment)
               << "}";
        }
        os << (s.points.empty() ? "]" : "\n  ]") << "}";
    }

    // Critical-path attribution exists only on traces that carried
    // job spans, with the same both-sides-or-skip diff contract.
    if (report.critical_path.valid) {
        const CriticalPathReport &cp = report.critical_path;
        os << ",\n  \"critical_path\": {\"jobs\": " << cp.jobs
           << ", \"shed\": " << cp.shed << ", \"classes\": [";
        for (std::size_t i = 0; i < cp.classes.size(); ++i) {
            const CriticalPathClass &c = cp.classes[i];
            os << (i > 0 ? ",\n    " : "\n    ");
            os << "{\"priority\": " << c.priority
               << ", \"jobs\": " << c.jobs << ", \"response\": ";
            writeDist(c.response, os);
            os << ", \"admission\": " << jsonNum(c.admission)
               << ", \"queue_wait\": " << jsonNum(c.queue_wait)
               << ", \"compute\": " << jsonNum(c.compute)
               << ", \"mem_stall\": " << jsonNum(c.mem_stall)
               << ", \"retry_backoff\": " << jsonNum(c.retry_backoff)
               << "}";
        }
        os << (cp.classes.empty() ? "]" : "\n  ]") << "}";
    }

    // The health section exists only on runs that evaluated the
    // streaming detectors, with the same both-sides-or-skip contract.
    if (report.health.valid) {
        const HealthReport &h = report.health;
        os << ",\n  \"health\": {\"alerts\": " << h.alerts
           << ", \"alerts_dropped\": " << h.alerts_dropped
           << ", \"critical_fired\": " << h.critical_fired
           << ", \"critical_active\": "
           << (h.critical_active ? "true" : "false")
           << ", \"rules\": [";
        for (std::size_t i = 0; i < h.rules.size(); ++i) {
            const HealthRuleSummary &r = h.rules[i];
            os << (i > 0 ? ",\n    " : "\n    ");
            os << "{\"rule\": " << json::quote(r.rule)
               << ", \"severity\": " << json::quote(r.severity)
               << ", \"fired\": " << r.fired
               << ", \"cleared\": " << r.cleared << ", \"active\": "
               << (r.active ? "true" : "false") << "}";
        }
        os << (h.rules.empty() ? "]" : "\n  ]") << "}";
    }

    os << ",\n  \"phases\": [";
    for (std::size_t i = 0; i < report.phases.size(); ++i) {
        const PhaseReport &p = report.phases[i];
        os << (i > 0 ? ",\n    " : "\n    ");
        os << "{\"phase\": " << p.phase
           << ", \"name\": " << json::quote(p.name)
           << ", \"start\": " << jsonNum(p.start)
           << ", \"end\": " << jsonNum(p.end)
           << ", \"duration\": " << jsonNum(p.end - p.start)
           << ", \"pairs\": " << p.pairs << ",\n     \"tm\": ";
        writeDist(p.tm, os);
        os << ",\n     \"tc\": ";
        writeDist(p.tc, os);
        os << ",\n     \"by_mtl\": [";
        for (std::size_t j = 0; j < p.by_mtl.size(); ++j) {
            const MtlAttribution &a = p.by_mtl[j];
            os << (j > 0 ? ",\n       " : "\n       ");
            os << "{\"mtl\": " << a.mtl << ", \"wall_seconds\": "
               << jsonNum(a.wall_seconds)
               << ", \"pairs\": " << a.pairs << ", \"tm\": ";
            writeDist(a.tm, os);
            os << ", \"tc\": ";
            writeDist(a.tc, os);
            if (a.counters.present) {
                os << ", \"counters\": ";
                writeCounters(a.counters, os);
            }
            os << "}";
        }
        os << (p.by_mtl.empty() ? "]" : "\n     ]");
        const QueueFit &f = p.queue_fit;
        os << ",\n     \"queue_fit\": {\"valid\": "
           << (f.valid ? "true" : "false")
           << ", \"tml\": " << jsonNum(f.tml)
           << ", \"tql\": " << jsonNum(f.tql)
           << ", \"mean_b\": " << jsonNum(f.mean_b)
           << ", \"samples\": " << f.samples << "}";
        const ModelValidation &v = p.validation;
        os << ",\n     \"validation\": {\"valid\": "
           << (v.valid ? "true" : "false") << ", \"mtl\": " << v.mtl
           << ", \"tm_k\": " << jsonNum(v.tm_k)
           << ", \"tm_n\": " << jsonNum(v.tm_n)
           << ", \"tm_n_measured\": "
           << (v.tm_n_measured ? "true" : "false")
           << ", \"tc\": " << jsonNum(v.tc)
           << ", \"predicted_speedup\": "
           << jsonNum(v.predicted_speedup)
           << ", \"measured_speedup\": "
           << jsonNum(v.measured_speedup)
           << ", \"abs_error\": " << jsonNum(v.abs_error) << "}";
        if (p.counters.present) {
            os << ",\n     \"counters\": ";
            writeCounters(p.counters, os);
        }
        os << "}";
    }
    os << (report.phases.empty() ? "]" : "\n  ]");

    os << ",\n  \"workers\": [";
    for (std::size_t i = 0; i < report.workers.size(); ++i) {
        const WorkerReport &w = report.workers[i];
        os << (i > 0 ? ",\n    " : "\n    ");
        os << "{\"worker\": " << w.worker
           << ", \"events\": " << w.events
           << ", \"busy\": " << jsonNum(w.busy)
           << ", \"stall\": " << jsonNum(w.stall)
           << ", \"idle\": " << jsonNum(w.idle) << "}";
    }
    os << (report.workers.empty() ? "]" : "\n  ]");

    const OverheadReport &o = report.overhead;
    os << ",\n  \"overhead\": {\"pairs_observed\": " << o.pairs_observed
       << ", \"probe_pairs\": " << o.probe_pairs
       << ", \"stale_pairs\": " << o.stale_pairs
       << ", \"probe_fraction\": " << jsonNum(o.probe_fraction)
       << ", \"stale_fraction\": " << jsonNum(o.stale_fraction)
       << ", \"decisions\": " << o.decisions
       << ", \"fallbacks\": " << o.fallbacks << "}";

    os << ",\n  \"decisions\": [";
    for (std::size_t i = 0; i < report.decisions.size(); ++i) {
        os << (i > 0 ? ",\n    " : "\n    ");
        writeDecision(report.decisions[i], os);
    }
    os << (report.decisions.empty() ? "]" : "\n  ]") << "\n}\n";
}

// ---- table rendering -----------------------------------------------

namespace {

/** Microseconds with 3 decimals -- the natural unit for task times. */
std::string
us(double seconds)
{
    return TablePrinter::num(seconds * 1e6, 3);
}

} // namespace

std::string
reportTable(const Report &report)
{
    std::ostringstream os;
    os << "run: policy " << report.policy << ", cores " << report.cores
       << ", makespan " << TablePrinter::num(report.makespan * 1e3, 3)
       << " ms, trace events " << report.trace_events << " ("
       << report.trace_dropped << " dropped)\n";

    os << "\nphase attribution (times in us)\n";
    TablePrinter attribution({"phase", "mtl", "wall%", "pairs",
                              "tm.mean", "tm.p50", "tm.p95", "tm.p99",
                              "tc.mean", "tc.p95"});
    for (const PhaseReport &p : report.phases) {
        const double duration = p.end - p.start;
        attribution.addRow(
            {p.name, "all", "100.00%", std::to_string(p.pairs),
             us(p.tm.mean), us(p.tm.p50), us(p.tm.p95), us(p.tm.p99),
             us(p.tc.mean), us(p.tc.p95)});
        for (const MtlAttribution &a : p.by_mtl)
            attribution.addRow(
                {p.name, std::to_string(a.mtl),
                 duration > 0.0
                     ? TablePrinter::pct(a.wall_seconds / duration)
                     : "-",
                 std::to_string(a.pairs), us(a.tm.mean), us(a.tm.p50),
                 us(a.tm.p95), us(a.tm.p99), us(a.tc.mean),
                 us(a.tc.p95)});
    }
    attribution.print(os);

    if (report.has_counters) {
        os << "\nmemory interference by (phase, mtl) -- source: "
              "hardware counters\n";
        TablePrinter interference(
            {"phase", "mtl", "llc_misses", "mpki", "stall%",
             "stalls/miss", "mlp"});
        auto counterRow = [&](const std::string &phase,
                              const std::string &mtl,
                              const CounterStats &c) {
            interference.addRow(
                {phase, mtl, std::to_string(c.llc_misses),
                 TablePrinter::num(c.mpki, 2),
                 TablePrinter::pct(c.stall_share),
                 TablePrinter::num(c.stalls_per_miss, 1),
                 TablePrinter::num(c.achieved_mlp, 2)});
        };
        for (const PhaseReport &p : report.phases) {
            if (!p.counters.present)
                continue;
            counterRow(p.name, "all", p.counters);
            for (const MtlAttribution &a : p.by_mtl)
                if (a.counters.present)
                    counterRow(p.name, std::to_string(a.mtl),
                               a.counters);
        }
        interference.print(os);
        const CounterStats &c = report.counters;
        os << "run totals: " << c.llc_misses << " LLC misses, "
           << TablePrinter::pct(c.stall_share) << " of "
           << c.cycles << " cycles stalled, "
           << TablePrinter::num(c.stalls_per_miss, 1)
           << " stalls/miss, achieved MLP "
           << TablePrinter::num(c.achieved_mlp, 2) << "\n";
    }

    os << "\nqueueing decomposition T_mb = T_ml + b*T_ql (us)\n";
    TablePrinter queue({"phase", "T_ml", "T_ql", "mean b", "samples",
                        "fit"});
    for (const PhaseReport &p : report.phases)
        queue.addRow({p.name, us(p.queue_fit.tml), us(p.queue_fit.tql),
                      TablePrinter::num(p.queue_fit.mean_b, 2),
                      std::to_string(p.queue_fit.samples),
                      p.queue_fit.valid ? "ok" : "degenerate"});
    queue.print(os);

    os << "\nmodel validation (speedup of run MTL vs MTL=n)\n";
    TablePrinter validation({"phase", "mtl", "T_mk(us)", "T_mn(us)",
                             "T_mn src", "T_c(us)", "predicted",
                             "measured", "abs err"});
    for (const PhaseReport &p : report.phases) {
        const ModelValidation &v = p.validation;
        if (!v.valid) {
            validation.addRow({p.name, "-", "-", "-", "-", "-", "-",
                               "-", "-"});
            continue;
        }
        validation.addRow(
            {p.name, std::to_string(v.mtl), us(v.tm_k), us(v.tm_n),
             v.tm_n_measured ? "measured" : "queue-fit", us(v.tc),
             TablePrinter::num(v.predicted_speedup, 3),
             TablePrinter::num(v.measured_speedup, 3),
             TablePrinter::num(v.abs_error, 3)});
    }
    validation.print(os);

    os << "\nworker accounting (fractions of makespan)\n";
    TablePrinter workers({"worker", "events", "busy", "stall", "idle"});
    for (const WorkerReport &w : report.workers) {
        const double span = report.makespan > 0.0 ? report.makespan
                                                  : 1.0;
        workers.addRow({std::to_string(w.worker),
                        std::to_string(w.events),
                        TablePrinter::pct(w.busy / span),
                        TablePrinter::pct(w.stall / span),
                        TablePrinter::pct(w.idle / span)});
    }
    workers.print(os);

    const OverheadReport &o = report.overhead;
    os << "\nmonitoring overhead: " << o.pairs_observed
       << " pairs observed, " << o.probe_pairs << " probe ("
       << TablePrinter::pct(o.probe_fraction) << "), " << o.stale_pairs
       << " stale (" << TablePrinter::pct(o.stale_fraction) << "), "
       << o.decisions << " decisions, " << o.fallbacks
       << " fallbacks\n";

    if (report.slo.valid) {
        const SloReport &s = report.slo;
        os << "\nSLO attainment vs offered load (SLO "
           << us(s.slo_seconds) << " us)\n";
        TablePrinter slo({"rate(/s)", "offered", "admitted", "shed",
                          "missed", "shed%", "p50(us)", "p95(us)",
                          "p99(us)", "attainment"});
        for (const SloPoint &p : s.points)
            slo.addRow({TablePrinter::num(p.offered_rate, 1),
                        std::to_string(p.offered),
                        std::to_string(p.admitted),
                        std::to_string(p.shed),
                        std::to_string(p.missed),
                        TablePrinter::pct(p.shed_rate), us(p.p50),
                        us(p.p95), us(p.p99),
                        TablePrinter::pct(p.attainment)});
        slo.print(os);
        if (s.knee_rate > 0.0)
            os << "knee: attainment first degrades at ~"
               << TablePrinter::num(s.knee_rate, 1)
               << " jobs/s offered\n";
        else
            os << "knee: not reached within the swept rates\n";
    }

    if (report.critical_path.valid) {
        const CriticalPathReport &cp = report.critical_path;
        os << "\ncritical path by priority class (" << cp.jobs
           << " jobs, " << cp.shed << " shed; mean us per "
           << "component)\n";
        TablePrinter critical({"priority", "jobs", "resp.p50",
                               "resp.p95", "resp.p99", "queue_wait",
                               "compute", "mem_stall", "retry"});
        for (const CriticalPathClass &c : cp.classes)
            critical.addRow({std::to_string(c.priority),
                             std::to_string(c.jobs),
                             us(c.response.p50), us(c.response.p95),
                             us(c.response.p99), us(c.queue_wait),
                             us(c.compute), us(c.mem_stall),
                             us(c.retry_backoff)});
        critical.print(os);
    }

    if (report.health.valid) {
        const HealthReport &h = report.health;
        if (h.rules.empty()) {
            os << "\nhealth: all detectors quiet (0 alerts)\n";
        } else {
            os << "\nhealth alerts (" << h.alerts << " edges, "
               << h.critical_fired << " critical fires";
            if (h.alerts_dropped > 0)
                os << ", " << h.alerts_dropped << " dropped";
            os << ")\n";
            TablePrinter health({"rule", "severity", "fired",
                                 "cleared", "at end"});
            for (const HealthRuleSummary &r : h.rules)
                health.addRow({r.rule, r.severity,
                               std::to_string(r.fired),
                               std::to_string(r.cleared),
                               r.active ? "ACTIVE" : "clear"});
            health.print(os);
            if (h.critical_active)
                os << "critical alert still active at drain\n";
        }
    }

    os << "\npolicy decision audit\n";
    TablePrinter audit({"t(ms)", "reason", "mtl", "tm(us)", "tc(us)",
                        "IdleBound", "no-idle", "idle", "pred speedup",
                        "probes", "degraded"});
    for (const core::MtlDecision &d : report.decisions)
        audit.addRow(
            {TablePrinter::num(d.time * 1e3, 3),
             decisionReasonName(d.reason),
             std::to_string(d.from_mtl) + "->" +
                 std::to_string(d.to_mtl),
             us(d.window_tm), us(d.window_tc),
             std::to_string(d.idle_bound),
             std::to_string(d.mtl_no_idle),
             std::to_string(d.mtl_idle),
             d.predicted_speedup > 0.0
                 ? TablePrinter::num(d.predicted_speedup, 3)
                 : "-",
             std::to_string(d.probes_used), d.degraded ? "yes" : "no"});
    audit.print(os);
    return os.str();
}

// ---- report diffing ------------------------------------------------

namespace {

/** Flag a regression when `candidate` worsens past the threshold. */
void
compareMetric(const std::string &metric, double baseline,
              double candidate, double threshold, DiffResult &out)
{
    if (baseline <= 0.0)
        return; // no meaningful relative comparison
    const double change = (candidate - baseline) / baseline;
    if (change > threshold)
        out.regressions.push_back(
            {metric, baseline, candidate, change});
}

const json::Value *
findPhase(const json::Value &report, const std::string &name)
{
    const json::Value *phases = report.find("phases");
    if (phases == nullptr || !phases->isArray())
        return nullptr;
    for (const json::Value &phase : phases->array)
        if (phase.stringAt("name") == name)
            return &phase;
    return nullptr;
}

} // namespace

DiffResult
diffReports(const json::Value &baseline, const json::Value &candidate,
            double threshold)
{
    DiffResult out;
    if (!baseline.isObject() || !candidate.isObject()) {
        out.notes.push_back("input is not a report object");
        return out;
    }
    compareMetric("makespan", baseline.numberAt("makespan"),
                  candidate.numberAt("makespan"), threshold, out);

    // The counters section only exists on runs that carried hardware
    // counters; an old baseline (or a null-provider run) simply lacks
    // it, which must not fail the diff -- compare only when both
    // sides have it.
    const json::Value *base_counters = baseline.find("counters");
    const json::Value *cand_counters = candidate.find("counters");
    if (base_counters != nullptr && cand_counters != nullptr) {
        compareMetric("counters.stalls_per_miss",
                      base_counters->numberAt("stalls_per_miss"),
                      cand_counters->numberAt("stalls_per_miss"),
                      threshold, out);
        compareMetric("counters.stall_share",
                      base_counters->numberAt("stall_share"),
                      cand_counters->numberAt("stall_share"),
                      threshold, out);
    }

    // Same contract for the SLO section: only open-loop reports have
    // one, and a baseline predating the schema (or a closed-loop run
    // on either side) must diff cleanly in both directions.
    const json::Value *base_slo = baseline.find("slo");
    const json::Value *cand_slo = candidate.find("slo");
    if (base_slo != nullptr && cand_slo != nullptr) {
        // knee_rate 0 means "attainment never degraded in the sweep"
        // (the best outcome), so compare inverted capacities only
        // when both sides found a knee, and flag a knee newly
        // appearing where the baseline had none.
        const double base_knee = base_slo->numberAt("knee_rate");
        const double cand_knee = cand_slo->numberAt("knee_rate");
        if (base_knee > 0.0 && cand_knee > 0.0)
            compareMetric("slo.knee_rate (inverse capacity)",
                          1.0 / base_knee, 1.0 / cand_knee, threshold,
                          out);
        else if (base_knee <= 0.0 && cand_knee > 0.0)
            out.regressions.push_back(
                {"slo.knee_rate (knee newly present)", base_knee,
                 cand_knee, 1.0});
        const json::Value *base_pts = base_slo->find("points");
        const json::Value *cand_pts = cand_slo->find("points");
        if (base_pts != nullptr && base_pts->isArray() &&
            cand_pts != nullptr && cand_pts->isArray()) {
            for (const json::Value &bp : base_pts->array) {
                const double rate = bp.numberAt("offered_rate");
                const json::Value *match = nullptr;
                for (const json::Value &cp : cand_pts->array)
                    if (std::fabs(cp.numberAt("offered_rate") - rate) <=
                        1e-9 * std::max(1.0, std::fabs(rate))) {
                        match = &cp;
                        break;
                    }
                if (match == nullptr) {
                    out.notes.push_back(
                        "slo point missing from candidate: rate " +
                        std::to_string(rate));
                    continue;
                }
                const std::string tag =
                    "slo rate " + std::to_string(rate);
                compareMetric(tag + " p99", bp.numberAt("p99"),
                              match->numberAt("p99"), threshold, out);
                compareMetric(tag + " shed_rate",
                              bp.numberAt("shed_rate"),
                              match->numberAt("shed_rate"), threshold,
                              out);
            }
        }
    }

    // Critical-path sections exist only on span-carrying reports;
    // match classes by priority and compare tail response plus the
    // two components throttling is meant to move (queueing and
    // memory stall). Absence on either side skips the comparison.
    const json::Value *base_cp = baseline.find("critical_path");
    const json::Value *cand_cp = candidate.find("critical_path");
    if (base_cp != nullptr && cand_cp != nullptr) {
        const json::Value *base_cls = base_cp->find("classes");
        const json::Value *cand_cls = cand_cp->find("classes");
        if (base_cls != nullptr && base_cls->isArray() &&
            cand_cls != nullptr && cand_cls->isArray()) {
            for (const json::Value &bc : base_cls->array) {
                const double priority = bc.numberAt("priority");
                const json::Value *match = nullptr;
                for (const json::Value &cc : cand_cls->array)
                    if (cc.numberAt("priority") == priority) {
                        match = &cc;
                        break;
                    }
                if (match == nullptr) {
                    out.notes.push_back(
                        "critical-path class missing from candidate: "
                        "priority " +
                        std::to_string(static_cast<long>(priority)));
                    continue;
                }
                const std::string tag =
                    "critical_path priority " +
                    std::to_string(static_cast<long>(priority));
                const json::Value *base_resp = bc.find("response");
                const json::Value *cand_resp = match->find("response");
                if (base_resp != nullptr && cand_resp != nullptr)
                    compareMetric(tag + " response.p99",
                                  base_resp->numberAt("p99"),
                                  cand_resp->numberAt("p99"),
                                  threshold, out);
                compareMetric(tag + " queue_wait",
                              bc.numberAt("queue_wait"),
                              match->numberAt("queue_wait"), threshold,
                              out);
                compareMetric(tag + " mem_stall",
                              bc.numberAt("mem_stall"),
                              match->numberAt("mem_stall"), threshold,
                              out);
            }
        }
    }

    // Health sections exist only on detector-enabled runs. Alert
    // *counts* are load-dependent, so the diff gates on qualitative
    // degradation only: a critical detector firing where the baseline
    // had none, and a critical alert still active when the candidate
    // drained.
    const json::Value *base_health = baseline.find("health");
    const json::Value *cand_health = candidate.find("health");
    if (base_health != nullptr && cand_health != nullptr) {
        const double base_crit =
            base_health->numberAt("critical_fired");
        const double cand_crit =
            cand_health->numberAt("critical_fired");
        if (base_crit <= 0.0 && cand_crit > 0.0)
            out.regressions.push_back(
                {"health.critical_fired (newly present)", base_crit,
                 cand_crit, 1.0});
        const json::Value *base_active =
            base_health->find("critical_active");
        const json::Value *cand_active =
            cand_health->find("critical_active");
        const bool base_crit_active =
            base_active != nullptr && base_active->boolean;
        const bool cand_crit_active =
            cand_active != nullptr && cand_active->boolean;
        if (!base_crit_active && cand_crit_active)
            out.regressions.push_back(
                {"health.critical_active (alert active at drain)",
                 0.0, 1.0, 1.0});
        const json::Value *base_rules = base_health->find("rules");
        const json::Value *cand_rules = cand_health->find("rules");
        if (base_rules != nullptr && base_rules->isArray() &&
            cand_rules != nullptr && cand_rules->isArray()) {
            for (const json::Value &cr : cand_rules->array) {
                if (cr.stringAt("severity") != "critical" ||
                    cr.numberAt("fired") <= 0.0)
                    continue;
                const std::string rule = cr.stringAt("rule");
                bool fired_in_baseline = false;
                for (const json::Value &br : base_rules->array)
                    if (br.stringAt("rule") == rule &&
                        br.numberAt("fired") > 0.0) {
                        fired_in_baseline = true;
                        break;
                    }
                if (!fired_in_baseline)
                    out.regressions.push_back(
                        {"health rule " + rule +
                             " (critical, newly firing)",
                         0.0, cr.numberAt("fired"), 1.0});
            }
        }
    }

    const json::Value *base_overhead = baseline.find("overhead");
    const json::Value *cand_overhead = candidate.find("overhead");
    if (base_overhead != nullptr && cand_overhead != nullptr)
        compareMetric("overhead.probe_fraction",
                      base_overhead->numberAt("probe_fraction"),
                      cand_overhead->numberAt("probe_fraction"),
                      threshold, out);

    const json::Value *base_phases = baseline.find("phases");
    if (base_phases != nullptr && base_phases->isArray()) {
        for (const json::Value &phase : base_phases->array) {
            const std::string name = phase.stringAt("name");
            const json::Value *other = findPhase(candidate, name);
            if (other == nullptr) {
                out.notes.push_back("phase missing from candidate: " +
                                    name);
                continue;
            }
            compareMetric("phase " + name + " duration",
                          phase.numberAt("duration"),
                          other->numberAt("duration"), threshold, out);
            const json::Value *base_tm = phase.find("tm");
            const json::Value *cand_tm = other->find("tm");
            if (base_tm != nullptr && cand_tm != nullptr) {
                compareMetric("phase " + name + " tm.mean",
                              base_tm->numberAt("mean"),
                              cand_tm->numberAt("mean"), threshold,
                              out);
                compareMetric("phase " + name + " tm.p95",
                              base_tm->numberAt("p95"),
                              cand_tm->numberAt("p95"), threshold,
                              out);
            }
            const json::Value *base_pc = phase.find("counters");
            const json::Value *cand_pc = other->find("counters");
            if (base_pc != nullptr && cand_pc != nullptr)
                compareMetric(
                    "phase " + name + " counters.stalls_per_miss",
                    base_pc->numberAt("stalls_per_miss"),
                    cand_pc->numberAt("stalls_per_miss"), threshold,
                    out);
        }
    }
    const json::Value *cand_phases = candidate.find("phases");
    if (cand_phases != nullptr && cand_phases->isArray())
        for (const json::Value &phase : cand_phases->array)
            if (findPhase(baseline, phase.stringAt("name")) == nullptr)
                out.notes.push_back("phase new in candidate: " +
                                    phase.stringAt("name"));
    return out;
}

} // namespace tt::obs
