/**
 * @file
 * The run's task trace, shared by the real-thread runtime and the
 * simulator.
 *
 * A TaskEvent is one task's successful attempt. Tracing costs the
 * run nothing while it is live: the engine keeps each pair's times,
 * contexts, MTLs and attempt counts in its pair slots anyway, and
 * once drive() returned exec::Engine builds one (start, end,
 * task)-ordered event stream from them. TraceData couples that
 * stream with the policy's MTL transition log and the graph's phase
 * names; chrome_trace.hh renders it in the Chrome trace-event format
 * for chrome://tracing/Perfetto.
 */

#ifndef TT_OBS_TRACE_HH
#define TT_OBS_TRACE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/audit.hh"
#include "obs/health.hh"
#include "obs/perf/counters.hh"
#include "obs/span.hh"

namespace tt::obs {

/** One executed task: its successful attempt. */
struct TaskEvent
{
    std::int32_t task = -1;  ///< task id within the graph
    std::int32_t pair = -1;  ///< memory-compute pair id
    std::int32_t phase = -1; ///< phase id (index into phase names)
    bool is_memory = false;  ///< memory task (true) or compute task
    int worker = -1;         ///< worker thread / hardware context
    double start = 0.0;      ///< dispatch time, seconds from run start
    double end = 0.0;        ///< completion time, seconds
    int mtl = 0;             ///< MTL the policy had published at dispatch
    int attempt = 0;         ///< attempt that succeeded (0 = first)

    /** True when `counters` holds this attempt's hardware-counter
     *  delta (the final attempt only -- retries are separate). */
    bool has_counters = false;
    perf::CounterSet counters;
};

/**
 * Everything the exporter needs, decoupled from which runtime
 * produced it: the task event stream, the policy's (time, MTL)
 * transition log, its decision audit records, and the graph's phase
 * names (indexed by TaskEvent::phase).
 */
struct TraceData
{
    std::vector<TaskEvent> events;
    std::vector<std::pair<double, int>> mtl_trace;
    std::vector<std::string> phase_names;
    std::vector<core::MtlDecision> decisions;

    /** Per-job causal spans (see span.hh); empty on old traces. */
    std::vector<JobSpan> spans;

    /** Health-alert edges (see health.hh); rendered as instant
     *  events. Empty when the run had no health engine. */
    std::vector<AlertEvent> alerts;

    /** Alert edges the engine's bounded ring had to evict. */
    std::uint64_t alerts_dropped = 0;

    /** True when the run evaluated the health detectors (so an
     *  empty `alerts` means "healthy", not "not watched"). */
    bool health_enabled = false;
};

} // namespace tt::obs

#endif // TT_OBS_TRACE_HH
