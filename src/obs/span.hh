/**
 * @file
 * Per-job causal spans: the telemetry record of one job (one
 * memory/compute pair) from arrival to its terminal state.
 *
 * The task trace (trace.hh) answers "what ran where"; a JobSpan
 * answers "where did *this job's* response time go". Each span
 * holds the job's arrival, admission verdict, every dispatch attempt
 * (including failed attempts and the retry backoff each was granted)
 * and the terminal outcome, plus an additive CriticalPath
 * decomposition:
 *
 *   response = admission + queue_wait + compute + mem_stall
 *            + retry_backoff
 *
 * The identity holds by construction (queue_wait is defined as the
 * non-executing remainder), so per-job components always sum to the
 * measured response. exec::Engine builds the spans once the run is
 * over, next to the trace, from what the run recorded anyway: each
 * pair's slot (times, workers, attempt counts), its failed-attempt
 * log, the arrival stamps and the admission log. While the run is
 * live it appends only each pair's id, under its run mutex, to a log
 * in terminal order, one entry per pair. The span capacity bounds
 * only the output: the spans are those of the last pairs to finish,
 * and the older ones are counted as dropped (published as
 * `obs.spans_dropped`). chrome_trace.hh renders spans as flow events
 * linking the arrival instant to the completing worker slice;
 * analyzer.hh aggregates the critical-path components per priority
 * class.
 */

#ifndef TT_OBS_SPAN_HH
#define TT_OBS_SPAN_HH

#include <cstdint>
#include <vector>

#include "load/admission.hh"
#include "obs/perf/counters.hh"

namespace tt::obs {

/** One dispatch attempt of one of the span's two tasks, in
 *  completion order (failed attempts included). */
struct SpanAttempt
{
    std::int32_t task = -1; ///< task id within the graph
    bool is_memory = false; ///< memory task (true) or compute task
    int attempt = 0;        ///< 0 = first execution
    int worker = -1;        ///< context the attempt ran on
    double start = 0.0;     ///< body start, engine-clock seconds
    double end = 0.0;       ///< body end (incl. fault penalties)
    bool failed = false;    ///< attempt threw / injected failure

    /** Retry backoff granted after this (failed) attempt, seconds. */
    double backoff_seconds = 0.0;

    /** True when `counters` holds this attempt's hw-counter delta. */
    bool has_counters = false;
    perf::CounterSet counters;
};

/** Terminal state of a job span. */
enum class SpanOutcome
{
    Completed,    ///< pair finished (within SLO when one was set)
    DeadlineMiss, ///< pair finished but past its relative SLO
    Shed,         ///< rejected at admission; never executed
    Failed,       ///< a task exhausted its retries; run aborted
};

/** Stable lower-case name ("completed"/"deadline_miss"/...). */
const char *spanOutcomeName(SpanOutcome outcome);

/**
 * Additive decomposition of one job's response time, seconds. All
 * components are >= 0 and sum to `response` exactly (modulo clamping
 * of sub-nanosecond clock jitter on the host backend):
 *  - admission: time spent held at the admission gate (0 today --
 *    verdicts are instantaneous -- kept for the ttserved daemon);
 *  - queue_wait: time the job was runnable but not executing (ready-
 *    queue wait before first dispatch plus inter-task dispatch gaps);
 *  - compute: executing and not stalled on memory;
 *  - mem_stall: executing but stalled on memory, attributed via the
 *    hw-counter stall share of the successful attempts (0 when the
 *    run carried no counters);
 *  - retry_backoff: failed attempt bodies plus granted backoff
 *    sleeps.
 */
struct CriticalPath
{
    double admission = 0.0;
    double queue_wait = 0.0;
    double compute = 0.0;
    double mem_stall = 0.0;
    double retry_backoff = 0.0;
    double response = 0.0; ///< end - arrival (ground truth)

    double
    sum() const
    {
        return admission + queue_wait + compute + mem_stall +
               retry_backoff;
    }
};

/** Causal record of one job (pair) from arrival to terminal state. */
struct JobSpan
{
    std::int32_t pair = -1;
    int priority = 0;      ///< arrival-plan priority (0 closed-loop)
    bool open_loop = false; ///< offered by an arrival plan

    /**
     * Engine-clock arrival: the admission stamp on open-loop runs,
     * the instant the pair's memory task became ready (phase
     * activation / dependency unlock) on closed-loop runs -- so
     * closed-loop spans decompose the same way.
     */
    double arrival = 0.0;
    double end = 0.0; ///< terminal time (== arrival for shed jobs)

    load::AdmissionDecision decision = load::AdmissionDecision::Accept;
    load::ShedReason shed_reason = load::ShedReason::None;
    SpanOutcome outcome = SpanOutcome::Completed;

    /** Every dispatch attempt, in completion order. */
    std::vector<SpanAttempt> attempts;

    CriticalPath critical_path;
};

/**
 * Decompose a finalized span (terminal `end` set, attempts
 * complete). Pure accounting over the span's own records; the engine
 * calls it once per span as it builds the span.
 */
CriticalPath computeCriticalPath(const JobSpan &span);

} // namespace tt::obs

#endif // TT_OBS_SPAN_HH
