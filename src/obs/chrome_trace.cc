#include "obs/chrome_trace.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/json.hh"

namespace tt::obs {

void
writeChromeTrace(const TraceData &data, std::ostream &os)
{
    os << "[\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    os << std::fixed << std::setprecision(3);

    // Worker rows: one duration event per task.
    for (const TaskEvent &event : data.events) {
        sep();
        const std::string phase_name =
            event.phase >= 0 &&
                    event.phase <
                        static_cast<std::int32_t>(data.phase_names.size())
                ? data.phase_names[static_cast<std::size_t>(event.phase)]
                : "?";
        os << "  {\"ph\":\"X\",\"pid\":0,\"tid\":" << event.worker
           << ",\"name\":\"" << (event.is_memory ? "M" : "C") << " pair"
           << event.pair << "\",\"cat\":\""
           << (event.is_memory ? "memory" : "compute")
           << "\",\"ts\":" << event.start * 1e6
           << ",\"dur\":" << (event.end - event.start) * 1e6
           << ",\"args\":{\"phase\":" << json::quote(phase_name)
           << ",\"mtl\":" << event.mtl;
        if (event.has_counters)
            os << ",\"llc_misses\":" << event.counters.llc_misses
               << ",\"stalled_cycles\":"
               << event.counters.stalled_cycles
               << ",\"instructions\":"
               << event.counters.instructions;
        os << "}}";
    }

    // Hardware-counter tracks: cumulative totals sampled at each
    // counting event's completion, so the track slopes show where
    // misses and stalls concentrated over the run.
    {
        std::vector<const TaskEvent *> counted;
        for (const TaskEvent &event : data.events)
            if (event.has_counters)
                counted.push_back(&event);
        std::sort(counted.begin(), counted.end(),
                  [](const TaskEvent *a, const TaskEvent *b) {
                      return a->end < b->end;
                  });
        std::uint64_t misses = 0;
        std::uint64_t stalled = 0;
        for (const TaskEvent *event : counted) {
            misses += event->counters.llc_misses;
            stalled += event->counters.stalled_cycles;
            sep();
            os << "  {\"ph\":\"C\",\"pid\":0,\"name\":\"hw "
               << "counters\",\"ts\":" << event->end * 1e6
               << ",\"args\":{\"llc_misses\":" << misses
               << ",\"stalled_cycles\":" << stalled << "}}";
        }
    }

    // MTL counter track.
    for (const auto &[time, mtl] : data.mtl_trace) {
        sep();
        os << "  {\"ph\":\"C\",\"pid\":0,\"name\":\"MTL\",\"ts\":"
           << time * 1e6 << ",\"args\":{\"mtl\":" << mtl << "}}";
    }

    // Policy decision audit: one global instant event per record,
    // carrying the measurements that drove the transition, plus a
    // counter track of the predicted speedup at each selection.
    for (const core::MtlDecision &d : data.decisions) {
        sep();
        os << "  {\"ph\":\"i\",\"pid\":0,\"tid\":0,\"s\":\"g\","
           << "\"cat\":\"policy\",\"name\":\"policy "
           << core::decisionReasonName(d.reason)
           << "\",\"ts\":" << d.time * 1e6 << ",\"args\":{"
           << "\"from_mtl\":" << d.from_mtl
           << ",\"to_mtl\":" << d.to_mtl
           << ",\"window_tm_us\":" << d.window_tm * 1e6
           << ",\"window_tc_us\":" << d.window_tc * 1e6
           << ",\"idle_bound\":" << d.idle_bound
           << ",\"mtl_no_idle\":" << d.mtl_no_idle
           << ",\"mtl_idle\":" << d.mtl_idle
           << ",\"rank_no_idle\":" << d.rank_no_idle
           << ",\"rank_idle\":" << d.rank_idle
           << ",\"predicted_speedup\":" << d.predicted_speedup
           << ",\"probes_used\":" << d.probes_used
           << ",\"degraded\":" << (d.degraded ? "true" : "false")
           << "}}";
    }
    for (const core::MtlDecision &d : data.decisions) {
        if (d.predicted_speedup <= 0.0)
            continue;
        sep();
        os << "  {\"ph\":\"C\",\"pid\":0,\"name\":\"predicted "
           << "speedup\",\"ts\":" << d.time * 1e6
           << ",\"args\":{\"speedup\":" << d.predicted_speedup
           << "}}";
    }

    // Worker naming metadata.
    int max_worker = -1;
    for (const TaskEvent &event : data.events)
        max_worker = std::max(max_worker, event.worker);
    for (const JobSpan &span : data.spans)
        for (const SpanAttempt &attempt : span.attempts)
            max_worker = std::max(max_worker, attempt.worker);
    for (int worker = 0; worker <= max_worker; ++worker) {
        sep();
        os << "  {\"ph\":\"M\",\"pid\":0,\"tid\":" << worker
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\"context "
           << worker << "\"}}";
    }

    // Job spans as flow events: a flow start on the synthetic
    // "arrivals" track at the job's arrival stamp, bound (bp:"e") to
    // the worker row where its final attempt ended, so the viewer
    // draws an arrow from arrival to completion crossing any retry
    // hops. Shed jobs never reach a worker and render as instant
    // events on the arrivals track instead.
    {
        const int arrivals_tid = max_worker + 1;
        bool any_span = false;
        std::size_t flow_id = 0;
        for (const JobSpan &span : data.spans) {
            ++flow_id;
            any_span = true;
            if (span.attempts.empty()) {
                sep();
                os << "  {\"ph\":\"i\",\"pid\":0,\"tid\":"
                   << arrivals_tid << ",\"s\":\"t\",\"cat\":\"job\","
                   << "\"name\":\"shed pair" << span.pair
                   << "\",\"ts\":" << span.arrival * 1e6
                   << ",\"args\":{\"reason\":\""
                   << load::shedReasonName(span.shed_reason)
                   << "\",\"priority\":" << span.priority << "}}";
                continue;
            }
            const SpanAttempt &last = span.attempts.back();
            sep();
            os << "  {\"ph\":\"s\",\"pid\":0,\"tid\":" << arrivals_tid
               << ",\"id\":" << flow_id << ",\"cat\":\"job\","
               << "\"name\":\"pair" << span.pair
               << "\",\"ts\":" << span.arrival * 1e6
               << ",\"args\":{\"outcome\":\""
               << spanOutcomeName(span.outcome)
               << "\",\"priority\":" << span.priority
               << ",\"attempts\":" << span.attempts.size()
               << ",\"queue_wait_us\":"
               << span.critical_path.queue_wait * 1e6
               << ",\"mem_stall_us\":"
               << span.critical_path.mem_stall * 1e6 << "}}";
            sep();
            os << "  {\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":"
               << last.worker << ",\"id\":" << flow_id
               << ",\"cat\":\"job\",\"name\":\"pair" << span.pair
               << "\",\"ts\":" << last.end * 1e6 << "}";
        }
        if (any_span) {
            sep();
            os << "  {\"ph\":\"M\",\"pid\":0,\"tid\":" << arrivals_tid
               << ",\"name\":\"thread_name\",\"args\":{\"name\":"
               << "\"arrivals\"}}";
        }
    }

    // Health-alert edges as global instant events: the viewer draws
    // a full-height marker at every fired/cleared edge, with the
    // detector's observed-vs-threshold reading in the args.
    for (const AlertEvent &alert : data.alerts) {
        sep();
        os << "  {\"ph\":\"i\",\"pid\":0,\"tid\":0,\"s\":\"g\","
           << "\"cat\":\"health\",\"name\":"
           << json::quote("alert " + alert.rule + " " +
                          alertEdgeName(alert.edge))
           << ",\"ts\":" << alert.time * 1e6 << ",\"args\":{"
           << "\"severity\":\"" << alertSeverityName(alert.severity)
           << "\",\"edge\":\"" << alertEdgeName(alert.edge)
           << "\",\"window\":" << alert.window
           << ",\"observed\":" << alert.observed
           << ",\"threshold\":" << alert.threshold << "}}";
    }

    os << "\n]\n";
}

std::string
chromeTraceString(const TraceData &data)
{
    std::ostringstream os;
    writeChromeTrace(data, os);
    return os.str();
}

} // namespace tt::obs
