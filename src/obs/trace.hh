/**
 * @file
 * Low-overhead event tracing shared by the real-thread runtime and
 * the simulator.
 *
 * Each execution context (a host worker thread, a simulated hardware
 * context) records TaskEvents into its own fixed-capacity
 * RecordRing (ring.hh): one writer per ring, no locks and no
 * allocation on the hot path after construction, so tracing stays
 * cheap enough to leave on. When a run drains, exec::Engine calls
 * Tracer::merged() -- strictly after drive() returned -- to drain
 * every ring into one start-time-ordered event stream. TraceData
 * couples that stream with the policy's MTL transition log and the
 * graph's phase names; chrome_trace.hh renders it in the Chrome
 * trace-event format for chrome://tracing/Perfetto.
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
#include "obs/ring.hh"
#include "obs/span.hh"

namespace tt::obs {

/** One executed task, as recorded by the worker that ran it. */
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
 * Per-worker ring registry. Worker i writes only through ring(i), so
 * recording needs no synchronisation; merged() must only be called
 * once the workers are quiescent (the engine calls it after drive()
 * returned).
 */
class Tracer
{
  public:
    Tracer(int workers, std::size_t capacity_per_worker);

    int workers() const { return static_cast<int>(rings_.size()); }

    RecordRing<TaskEvent> &ring(int worker);
    const RecordRing<TaskEvent> &ring(int worker) const;

    /** Drain every ring into one stream sorted by (start, end,
     *  task): a k-way merge of the rings, each already in start order
     *  (one out of order is sorted on its own first), so the result
     *  is the whole-trace sort's. The merge runs in place over the
     *  appended rings, so the trace is held once. The rings are empty
     *  afterwards, their counters kept. */
    std::vector<TaskEvent> merged();

    /** Total events recorded across all rings. */
    std::uint64_t recorded() const;

    /** Total events lost to ring overwrites across all rings. */
    std::uint64_t dropped() const;

  private:
    std::vector<RecordRing<TaskEvent>> rings_;
};

/**
 * Everything the exporter needs, decoupled from which runtime
 * produced it: the merged event stream, the policy's (time, MTL)
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
