/**
 * @file
 * Backend-agnostic MTL scheduling engine.
 *
 * The paper describes ONE scheduling discipline (Sec. IV/V): pairs
 * of memory and compute tasks drained from barrier-separated phases,
 * compute dispatched freely, memory admission gated by the policy's
 * current MTL through "a lock and a counter". The repo used to
 * implement that discipline twice -- once over real threads
 * (runtime::Runtime) and once over the discrete-event simulator
 * (simrt::SimRuntime). This layer extracts the shared state machine
 * into a single Engine parameterized over a small ExecutionBackend
 * interface (clock, attempt dispatch, completion delivery, timers),
 * so host and sim runs make identical policy-visible decisions by
 * construction and every scheduler feature -- pair-granularity
 * retries with exponential backoff, fault-plan mirroring, sample
 * screening, audit/decision capture, metrics publication,
 * time-series sampling, watchdog deadlines -- lands exactly once.
 *
 * runtime::Runtime and simrt::SimRuntime are now thin adapters that
 * pick a backend (HostThreadBackend / SimBackend) and delegate here.
 */

#ifndef TT_EXEC_ENGINE_HH
#define TT_EXEC_ENGINE_HH

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/policy.hh"
#include "fault/fault_plan.hh"
#include "load/admission.hh"
#include "load/arrival.hh"
#include "obs/health.hh"
#include "obs/metric_shards.hh"
#include "obs/trace.hh"
#include "stream/task_graph.hh"
#include "util/concurrency/mpmc_queue.hh"
#include "util/concurrency/mtl_gate.hh"

namespace tt {
class MetricsRegistry;
}

namespace tt::obs {
class LiveFileSink;
}

namespace tt::exec {

class Engine;

/** Process exit code when the host watchdog fires (ttsim's exit-code
 *  table: 3, watchdog deadline exceeded). */
inline constexpr int kWatchdogExitCode = 3;

/** Options controlling an Engine run (host and sim alike). */
struct EngineOptions
{
    /**
     * Worker threads for the host backend (= hardware contexts, the
     * model's n). The sim backend ignores it and uses the machine's
     * context count.
     */
    int threads = 1;

    /** Pin worker i to CPU i % hw_cpus (host backend, Linux only). */
    bool pin_affinity = true;

    /**
     * Trace events kept per execution context: RunResult::trace
     * holds each context's latest trace_capacity events (by end
     * time), and the older ones are counted as dropped. It bounds
     * only the output: the trace is built after the run from the pair
     * slots, and the run reserves no memory for it. The default
     * traces every task of any reasonable graph.
     */
    std::size_t trace_capacity = 1 << 16;

    /**
     * Optional metrics sink (not owned). When set, the engine
     * publishes "runtime.*" counters/gauges/histograms: T_m and T_c
     * per MTL, ready-queue depths, the mem_in_flight high-water
     * mark, pin failures. Bind the same registry to the policy to
     * get the "policy.*" series alongside.
     */
    MetricsRegistry *metrics = nullptr;

    /**
     * Optional fault-injection plan (not owned). Faults are applied
     * deterministically per (task, attempt); see fault/fault_plan.hh.
     */
    const fault::FaultPlan *fault_plan = nullptr;

    /**
     * Attempts beyond the first before a failing task fails the
     * run. Failed compute attempts are retried at *pair*
     * granularity: the pair's memory body is re-executed first so
     * the compute body sees freshly gathered data. Each retry is
     * counted in `runtime.task_retries`.
     */
    int max_task_retries = 3;

    /**
     * Base of the exponential retry backoff: attempt a waits
     * base * 2^a seconds (capped at 50 ms) before re-executing.
     */
    double retry_backoff_seconds = 100e-6;

    /**
     * Watchdog deadline for the whole run, in engine-clock seconds
     * (wall time on the host backend, simulated time on the sim
     * backend); 0 disables it. A run that has not drained by then is
     * assumed wedged (stalled worker, livelocked policy). On the
     * host the watchdog dumps diagnostics -- the crash-dump hooks
     * print progress and trace totals and flush bound metrics -- and
     * terminates the process with kWatchdogExitCode, because wedged
     * threads cannot be unwound. On the sim (and any backend without
     * real threads) it fails the run in-band through the same
     * diagnostics path: `failed`/`watchdog_fired`/`failure_reason`
     * are set and run() returns normally.
     */
    double watchdog_seconds = 0.0;

    /**
     * Optional time-series sink (not owned). When set, the engine
     * appends one JSONL row (see obs/timeseries.hh) every
     * `timeseries_interval_seconds` of engine-clock time while the
     * run is live, plus one final row at drain: time, current MTL,
     * in-flight memory tasks, ready-queue depths, pairs done,
     * selections.
     */
    std::ostream *timeseries_out = nullptr;

    /** Sampling period of the time series, engine-clock seconds. */
    double timeseries_interval_seconds = 1e-3;

    /**
     * Optional hardware-counter source (not owned; see
     * obs/perf/counters.hh). When set, the backend brackets every
     * task-attempt body with counter reads, the successful attempt's
     * delta rides on its obs::TaskEvent and span attempt (a failed
     * attempt's only on its span attempt, never merged), and the
     * engine publishes "runtime.perf.*" aggregate counters plus the
     * "runtime.perf_unavailable" gauge (1 when the provider degraded
     * to null -- e.g. perf_event_open refused in a container -- in
     * which case the run proceeds unchanged with zero reads).
     */
    obs::perf::CounterProvider *counters = nullptr;

    /**
     * Optional open-loop arrival plan (not owned). When set, the run
     * becomes open-loop: pairs are *offered* at the plan's arrival
     * offsets (one job per pair, single-phase graphs only) instead of
     * being all ready at t=0. Each arrival passes through a
     * deterministic admission controller (see load/admission.hh)
     * that may ACCEPT, DELAY or SHED it; shed pairs never execute.
     * Arrivals are driven by backend timers -- simulated time on the
     * sim backend, wall clock on the host -- but admission decisions
     * depend only on the plan and `admission`, so both backends shed
     * the identical jobs.
     */
    const load::ArrivalPlan *arrival_plan = nullptr;

    /** Admission-control knobs for open-loop runs (see
     *  load/admission.hh; defaults resolve against the backend's
     *  context count). Ignored when arrival_plan is null. */
    load::AdmissionConfig admission;

    /**
     * Spans kept per run (see obs/span.hh): RunResult::spans holds
     * the spans of the latest span_capacity pairs to reach a terminal
     * state, and the older ones are counted in the `obs.spans_dropped`
     * counter and RunResult::spans_dropped. Like trace_capacity it
     * bounds only the output: the spans are built after the run.
     */
    std::size_t span_capacity = 1 << 16;

    /**
     * Optional live OpenMetrics snapshot sink (not owned; see
     * obs/live.hh). When set, the engine rewrites the snapshot file
     * every `live_interval_seconds` of engine-clock time plus once
     * at drain -- on the sim backend that yields periodic
     * *simulated-time* snapshots. The host backend typically serves
     * live metrics through obs::LiveMetricsServer instead (real
     * time, on demand). That server reads only the registry, so on a
     * worker-thread backend with `metrics` set the engine folds the
     * worker metric shards into the registry every
     * `live_interval_seconds`, sink or no sink.
     */
    obs::LiveFileSink *live_sink = nullptr;

    /** Snapshot (and worker-shard fold) period, engine-clock
     *  seconds. */
    double live_interval_seconds = 0.1;

    /**
     * Streaming health engine (see obs/health.hh). When
     * health.enabled the engine feeds obs::HealthEngine every
     * admission verdict and measured pair (under the scheduler
     * mutex) and the cumulative hot-path totals every
     * health.tick_seconds of engine-clock time; it publishes
     * `obs.alerts_*` metrics, and the run returns the fired/cleared
     * edge stream in RunResult::alerts. The job-window detectors
     * consume only admission-model state, so their alert sequence is
     * identical on host and sim for the same plan and config.
     */
    obs::HealthConfig health;
};

/** Audit record of one offered job's admission verdict (open-loop
 *  runs; one record per plan job, in arrival order). */
struct JobRecord
{
    int pair = 0;
    double arrival_seconds = 0.0; ///< plan arrival offset
    int priority = 0;
    load::AdmissionDecision decision = load::AdmissionDecision::Accept;
    load::ShedReason shed_reason = load::ShedReason::None;
    core::BackpressureState state = core::BackpressureState::Accept;
    int backlog = 0; ///< admission model's backlog at arrival
    double predicted_response = 0.0;
};

/** One retry the engine granted, in grant order. */
struct RetryRecord
{
    stream::TaskId task = stream::kInvalidTask;
    int attempt = 0; ///< the failed attempt being retried
};

/** Per-phase aggregates (phase order). */
struct PhaseResult
{
    std::string name;
    double tm_mean = 0.0;
    double tc_mean = 0.0;
    double start = 0.0; ///< first memory-task start, seconds
    double end = 0.0;   ///< last compute-task end, seconds
};

/**
 * Everything measured during one run, on any backend. Times are
 * engine-clock seconds from run start (wall on host, simulated on
 * sim). The simulator-only fields at the bottom stay zero on the
 * host backend.
 */
struct RunResult
{
    double seconds = 0.0; ///< makespan of the whole graph

    /** One sample per completed pair, in completion order. */
    std::vector<core::PairSample> samples;

    core::PolicyStats policy_stats;
    std::vector<std::pair<double, int>> mtl_trace;

    /** Policy decision audit log (see core/audit.hh). */
    std::vector<core::MtlDecision> decisions;

    double avg_tm = 0.0; ///< mean memory-task duration
    double avg_tc = 0.0; ///< mean compute-task duration

    /** Fraction of pairs consumed while probing candidate MTLs. */
    double monitor_overhead = 0.0;

    /** Peak number of concurrently executing memory tasks. */
    int peak_mem_in_flight = 0;

    /** One event per completed task, ordered by (start, end, task),
     *  built once drive() returned from the pair slots; each context
     *  keeps its latest EngineOptions::trace_capacity events. */
    std::vector<obs::TaskEvent> trace;

    /** Events the trace capacity left out (0 unless capped). */
    std::uint64_t trace_dropped = 0;

    /** Per-job causal spans in terminal order (see obs/span.hh),
     *  built once drive() returned from what the run recorded;
     *  closed-loop runs get spans too, with arrival = the instant
     *  the pair's memory task became ready. */
    std::vector<obs::JobSpan> spans;

    /** Spans the span capacity left out (0 unless capped). */
    std::uint64_t spans_dropped = 0;

    /** Per-phase aggregates (phase order). */
    std::vector<PhaseResult> phases;

    /** Every granted retry, in grant order (deterministic per seed
     *  on a single-context backend). */
    std::vector<RetryRecord> retries;

    /** Workers whose CPU-affinity pin failed (host backend only). */
    long pin_failures = 0;

    /** Task attempts re-executed after a failure. */
    long task_retries = 0;

    /** Tasks abandoned after exhausting max_task_retries. */
    long task_failures = 0;

    /** True when the run carried hardware-counter attribution. */
    bool has_counters = false;

    /** Whole-run counter totals (sum of the successful attempts'
     *  deltas). */
    obs::perf::CounterSet counters;

    // --- open-loop job accounting (zero for closed-loop runs) ---

    long jobs_offered = 0;  ///< jobs in the arrival plan
    long jobs_admitted = 0; ///< admitted (includes delayed)
    long jobs_delayed = 0;  ///< admitted past the delay watermark
    long jobs_shed = 0;     ///< rejected at admission
    long jobs_deadline_missed = 0; ///< admitted but finished late

    /**
     * Fraction of *offered* jobs that completed within their SLO;
     * shed jobs count as missed. 1.0 when no SLO was configured
     * (attainment then degenerates to admitted goodput fraction).
     */
    double slo_attainment = 1.0;

    /** Per-job admission audit records, in arrival order. */
    std::vector<JobRecord> jobs;

    /** Response time (completion - arrival) of every admitted pair
     *  that completed, in completion order. */
    std::vector<double> response_seconds;

    // --- health-engine output (empty unless options.health.enabled) ---

    /** True when the run evaluated the health detectors. */
    bool health_enabled = false;

    /** Alert fired/cleared edges, oldest first (bounded ring). */
    std::vector<obs::AlertEvent> alerts;

    /** Edges evicted from the alert ring. */
    std::uint64_t alerts_dropped = 0;

    /** True when any critical rule was still active at drain. */
    bool critical_alert_active = false;

    /** True when the run aborted instead of draining the graph. */
    bool failed = false;

    /** True when the watchdog deadline caused the failure. */
    bool watchdog_fired = false;

    /** Human-readable cause when failed (empty otherwise). */
    std::string failure_reason;

    // --- simulator-only measurements (0 on the host backend) ---

    std::uint64_t dram_accesses = 0;
    double bus_utilisation = 0.0; ///< mean across channels

    /** Peak LLC occupancy observed (bytes). */
    std::uint64_t peak_llc_occupancy = 0;
};

/** One task attempt the engine asks a backend to execute. */
struct AttemptSpec
{
    stream::TaskId task = stream::kInvalidTask;
    int attempt = 0; ///< 0 = first execution

    /**
     * Pair-granularity retry: re-run the pair's *memory* body before
     * this compute attempt so it sees freshly gathered data.
     */
    bool rerun_memory_first = false;

    /** Faults to realize during this attempt (all clear when no
     *  plan is attached). */
    fault::TaskFaults faults;

    /** Stall duration used when faults.stall is set, seconds. */
    double stall_seconds = 0.0;
};

/** What a backend reports back for one finished attempt. */
struct AttemptOutcome
{
    bool failed = false; ///< attempt threw / injected failure
    double start = 0.0;  ///< body start, engine-clock seconds
    double end = 0.0;    ///< body end (incl. fault penalties)
    std::string error;   ///< cause when failed (exception text)

    /** True when `counters` holds this attempt's counter delta
     *  (EngineOptions::counters set and the provider is live). */
    bool has_counters = false;
    obs::perf::CounterSet counters;
};

/**
 * What the engine needs from an execution substrate: a clock, a way
 * to start a task attempt on an idle context, one-shot timers (for
 * arrivals, retry backoff, the watchdog and the observation ticks),
 * and a drive loop that blocks until the run is over.
 *
 * Contract: startAttempt()/after()/cancel() must not call back into
 * the engine synchronously. startAttempt() and cancel() are called
 * with the engine lock held, and so is after(), except where an
 * observation tick re-arms itself outside it: after() must be safe
 * to call without the engine lock. Both backends' are -- the host's
 * timer list has its own mutex, and the simulator runs every timer
 * on its one event-loop thread. Completions are delivered by calling
 * Engine::onAttemptDone(context, outcome) from the backend's
 * execution context (a worker thread, a sim event, a test loop);
 * timer callbacks fire the std::function verbatim. runDrained() is
 * the engine's notification that no further attempts or timer
 * callbacks are needed; drive() must then return.
 */
class ExecutionBackend
{
  public:
    /** Timer handle; 0 is reserved for "no timer". */
    using TimerToken = std::uint64_t;

    virtual ~ExecutionBackend() = default;

    /** Execution contexts available (worker threads / hw contexts). */
    virtual int contexts() const = 0;

    /** Engine-clock seconds since beginRun(). */
    virtual double now() const = 0;

    /** Called once at the start of run(); stamps the clock origin. */
    virtual void beginRun(Engine &engine) { engine_ = &engine; }

    /** Begin executing one attempt on an idle context. */
    virtual void startAttempt(int context, const AttemptSpec &spec) = 0;

    /** Schedule `fn` to run `seconds` from now; returns a handle. */
    virtual TimerToken after(double seconds,
                             std::function<void()> fn) = 0;

    /** Cancel a pending timer (no-op if it already fired). */
    virtual void cancel(TimerToken token) = 0;

    /** Block until the run is over (drive workers / event queue). */
    virtual void drive(Engine &engine) = 0;

    /** The run finished: release workers, stop timers. */
    virtual void runDrained() {}

    /**
     * Who pops the engine's ready rings. True: this backend runs
     * worker threads that *pull* attempts themselves
     * (Engine::nextAttempt) and publish metrics through per-worker
     * shards. False: the engine pushes attempts through
     * startAttempt(), scanning idle contexts in ascending order
     * whenever an attempt completes, a retry fires or work arrives.
     * The scheduler state -- ready rings, MTL gate, per-context
     * reservations -- is the same either way.
     */
    virtual bool pullDispatch() const { return false; }

    /** A pair completed; the sim backend releases its LLC footprint. */
    virtual void
    pairCompleted(const stream::Task &memory_task)
    {
        (void)memory_task;
    }

    /** CPU-affinity pin failures observed so far (host backend). */
    virtual long pinFailures() const { return 0; }

    /**
     * True when a fired watchdog must kill the process (real threads
     * may be wedged holding locks and cannot be unwound); false to
     * fail the run in-band and let in-flight work drain.
     */
    virtual bool watchdogTerminatesProcess() const { return false; }

    /** Terminate without unwinding (only called when the above is
     *  true, after diagnostics were dumped). */
    [[noreturn]] virtual void terminateProcess(int exit_code);

    /** Fill backend-specific RunResult fields / publish gauges. */
    virtual void finalize(RunResult &result) { (void)result; }

  protected:
    Engine *engine_ = nullptr; ///< set by beginRun()
};

/**
 * The MTL-gated scheduling state machine, shared by every backend:
 * phase activation, ready queues, compute-first dispatch with memory
 * admission against policy.currentMtl(), pair timing and sample
 * delivery (with fault-plan corruption mirroring), bounded retries
 * with exponential backoff, clean run failure, the watchdog and
 * observation ticks, and metrics; the trace and the job spans are
 * built from the pair slots after the run.
 *
 * Thread-safe, with one scheduler state for every backend: MPMC
 * ready rings, one atomic admission counter standing in for the
 * paper's "counter", one cache-line slot per pair (dependency counts,
 * attempts, times, MTLs, workers, hand-off link) and one per context
 * (its reservation, retry state and progress). The per-task fast
 * path -- dispatch through tryDispatch(), MTL admission, completion,
 * successor unlock, metric publication -- is lock-free. A
 * compute completion does its pair-local work, pushes its pair onto
 * a lock-free hand-off list and goes back to work; whichever thread
 * takes the combiner token drains the list into the policy under
 * the mutex. The mutex covers only what must stay serialized with
 * the policy: sample delivery, retries, failures, arrivals, phase
 * barriers, watchdog and finish.
 *
 * Push vs. pull only decides who pops. Worker threads (host) call
 * tryDispatch() from nextAttempt(), and a worker whose memory task
 * releases its own pair's compute task keeps that task and runs it
 * next; for backends without threads (sim, mocks) the engine calls
 * tryDispatch() from an ascending idle-context scan under the mutex,
 * so their schedule is deterministic. See docs/substrate.md for the
 * memory-ordering argument.
 */
class Engine
{
  public:
    /** `options` is borrowed and must outlive the engine. */
    Engine(const stream::TaskGraph &graph,
           core::SchedulingPolicy &policy, const EngineOptions &options);

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Execute the graph on `backend` to completion; callable once. */
    RunResult run(ExecutionBackend &backend);

    /**
     * Backend upcall: the attempt running on `context` finished.
     * Success completes the task (samples, successors, barriers);
     * failure schedules a backoff retry or fails the run.
     */
    void onAttemptDone(int context, const AttemptOutcome &outcome);

    /**
     * Pull-mode backend upcall: block until an attempt is available
     * for `worker` and fill `spec`, or return false when the run is
     * over and the worker should exit. A compute task this worker's
     * memory completion kept runs first; other ready tasks come off
     * the MPMC rings, memory admission through the MTL gate. A
     * worker whose task is in retry backoff parks until its own
     * retry fires (the context stays reserved).
     */
    bool nextAttempt(int worker, AttemptSpec &spec);

    /** Lock-free: true once the run aborted (workers should bail). */
    bool
    runFailed() const
    {
        return run_failed_.load(std::memory_order_relaxed);
    }

  private:
    /** Where the retry reserved on one context stands. */
    enum class RetryState : std::uint8_t
    {
        None,    ///< no retry reserved
        Backoff, ///< granted; the backoff timer is pending
        /** The owning worker runs the reserved task next: its
         *  backoff elapsed, or it is the compute partner the
         *  context's memory completion kept. */
        Due,
    };

    /** The self-re-arming observation ticks, one timer each. */
    enum class ObsTick : std::uint8_t
    {
        Health,     ///< health tick window
        Timeseries, ///< time-series row
        Live,       ///< live snapshot, or only the shard fold
    };

    /** The tm/tc histogram ids of one MTL. */
    struct MtlIds
    {
        obs::ShardedMetrics::HistogramId tm;
        obs::ShardedMetrics::HistogramId tc;
        bool resolved = false;
    };

    /**
     * Everything one execution context owns, in one cache-line-
     * aligned slot, so that no per-attempt write lands on a line
     * another context writes. Other threads touch only the atomics
     * (the retry timer and a failing run move `retry` and release
     * `running` under mutex_; finish checks, time-series rows and the
     * health ticks read `running` and `done`) and `retry_token`,
     * under mutex_. `mtl_ids` belongs to the context's own
     * completions.
     */
    struct alignas(64) ContextSlot
    {
        /** Task this context runs, holds through a retry backoff, or
         *  kept to run next; kInvalidTask when the context is idle.
         *  A failed run finishes once no context is reserved. */
        std::atomic<stream::TaskId> running{stream::kInvalidTask};
        /** One state, so a reserved context never reads as idle:
         *  None->Backoff (failAttemptLocked) and Backoff->Due or
         *  Backoff->None (retry timer, abandon) happen under mutex_;
         *  only the owning worker moves None->Due (a kept partner)
         *  and claims Due->None, lock-free. */
        std::atomic<RetryState> retry{RetryState::None};
        ExecutionBackend::TimerToken retry_token = 0; ///< under mutex_
        /** Tasks this context completed, counted by the completion
         *  itself before it releases the context; the trace drops
         *  all but the latest trace_capacity of them. */
        std::atomic<int> done{0};
        /** tm/tc ids by MTL, interned by this context the first time
         *  it measures a pair at that MTL. */
        std::vector<MtlIds> mtl_ids;
    };

    static constexpr stream::PairId kNoPair = -1; ///< list end

    /**
     * Everything the engine tracks for one pair, in one cache line,
     * so no completion writes a line another pair's completion
     * writes. Per-task arrays are indexed by stream::TaskKind, memory
     * 0 and compute 1. The pair's dependency chain (dispatch, memory
     * completion, compute dispatch and completion, the hand-off's
     * link CAS) orders every access to the plain fields. They hold
     * every trace event, and with the failed-attempt log and the
     * arrival stamps everything a span is built from after the run.
     */
    struct alignas(64) PairSlot
    {
        /** Unfinished dependencies per task; the final fetch_sub
         *  (acq_rel) publishes the predecessor's times. */
        std::array<std::atomic<int>, 2> deps_left;
        std::array<int, 2> attempts{}; ///< failed attempts per task
        std::array<double, 2> start{}; ///< successful attempt's start
        std::array<double, 2> end{};   ///< ... and end
        std::array<std::int16_t, 2> mtl{};    ///< MTL at first dispatch
        /** Successful attempt's context; -1 until the task completes,
         *  so a task has a trace event once it is not. */
        std::array<std::int16_t, 2> worker{-1, -1};
        stream::PairId next = kNoPair; ///< hand-off link, older pair
        bool deadline_missed = false;  ///< open-loop verdict
    };
    static_assert(sizeof(PairSlot) == 64, "one cache line per pair");

    /** One failed attempt, logged under mutex_ as it is judged. */
    struct FailedAttempt
    {
        obs::SpanAttempt attempt; ///< as the pair's span shows it
        /** Not retried: the task exhausted its retries, or the run
         *  had failed. */
        bool terminal = false;
    };

    void activatePhaseLocked(int phase, double now);
    /** Admit every plan job due at or before plan offset `upto`. */
    void processArrivalsLocked(double upto);
    /** Arm the arrival timer for the next undelivered plan job. */
    void scheduleNextArrivalLocked(double from);
    /** Arrival timer fired: deliver due jobs, re-arm, dispatch. */
    void onArrivalTimer();
    /** Run one job through admission; queue or shed its pair. */
    void admitJobLocked(const load::JobSpec &job);
    /** Push backends: start attempts on idle contexts, lowest
     *  first, until nothing is admissible. */
    void tryScheduleLocked();
    /** Pop the next admissible ready task for `context` -- compute
     *  first, memory through the MTL gate -- and reserve the
     *  context for it; false when nothing is admissible now. */
    bool tryDispatch(int context, AttemptSpec &spec);
    /** The spec of task `id`'s current attempt. */
    AttemptSpec attemptSpec(stream::TaskId id) const;
    /**
     * Successful attempt: record it, unlock its successors, release
     * its gate slot and context, and run the dispatch scan and finish
     * check where they are due. A compute completion first does its
     * pair-local work (sample, metrics, span critical path) and
     * pushes its pair onto the hand-off list; it takes mutex_ only in
     * combinePairs() or when the run failed meanwhile.
     */
    void completeAttempt(int context, stream::TaskId id,
                         const AttemptOutcome &outcome);
    /** Failed attempt: grant a backoff retry (the context stays
     *  reserved) or, once retries are exhausted, fail the run. */
    void failAttemptLocked(int context, stream::TaskId id,
                           const AttemptOutcome &outcome);
    /** Retry backoff timer fired for `context`. */
    void onRetryTimer(int context);
    /** Release the attempt reserved on `context` without completing
     *  it (exhausted task, or a retry a failed run abandoned). */
    void abandonAttemptLocked(int context);
    void abandonPendingRetriesLocked();
    /** Drain the hand-off list; finish when drained (or failed, idle). */
    void maybeFinishLocked();
    /** Watchdog timer fired: terminate (host) or fail in-band. */
    void onWatchdogDeadline();
    /** Observation tick: fold the metric shards, run the tick's
     *  surface under mutex_, re-arm outside it. */
    void onObsTick(ObsTick tick);
    /** Arm the next `tick` one period from now. */
    void armObsTick(ObsTick tick);
    void emitTimeseriesRowLocked();
    /** Cumulative hot-path totals the health ticks difference. */
    obs::HotPathTotals hotPathTotals() const;
    /** Completed tasks beyond each context's trace_capacity. */
    std::uint64_t traceDropped() const;
    /** Best-effort diagnostics dump (crash hook / watchdog path). */
    void crashDump();
    /** Assemble the RunResult after drive() returned. */
    RunResult finishResult();
    /** The trace: an event per completed task, from the pair slots,
     *  each context's latest trace_capacity by (end, start, task),
     *  ordered by (start, end, task) (after drive() returned). */
    std::vector<obs::TaskEvent> buildTrace() const;
    /** The latest span_capacity spans, oldest first, built from
     *  terminal_pairs_, the pair slots, the failed-attempt log, the
     *  arrival stamps and the job log (after drive() returned). */
    std::vector<obs::JobSpan> buildSpans() const;

    // --- lock-free fast path helpers ---

    /** Push a newly ready task onto its kind's ring. */
    void enqueueReady(stream::TaskId id);
    /** Release `id`'s successors made ready; pull mode keeps a
     *  memory task's own compute partner and returns it instead of
     *  enqueueing it (kInvalidTask when none was kept). */
    stream::TaskId unlockSuccessors(stream::TaskId id, double now);
    /** The tm/tc ids of `mtl`, interning the names of a new MTL for
     *  `context`: the one place a completion builds a name. */
    MtlIds pairTimeIds(int context, int mtl);
    /** The sample of completed `pair`, with fault-plan corruption. */
    core::PairSample pairSample(stream::PairId pair) const;
    /** While pairs wait and the combiner token is free: take it and
     *  run the finish check, which drains, then the dispatch scan. */
    void combinePairs();
    /** Complete every handed-off pair, in push order. */
    void drainPairsLocked();
    /** Pair-completion critical section, run by the drainer: hand the
     *  sample to the policy and the health engine, append it, log
     *  the pair in terminal_pairs_, trip the phase barrier. */
    void completePairLocked(stream::PairId pair);
    /** Tasks completed so far, summed over the context slots. */
    int tasksDone() const;
    /** Abort the run once: reason, warn, abandon reservations. */
    void markRunFailedLocked(const std::string &reason);
    /** Publish policy_.currentMtl() to mtl_cache_; wake on raise. */
    void refreshMtlCacheLocked();
    /** Park `worker` until work might exist (bounded backstop). */
    void parkWorker(int worker);
    /** True when `worker` has nothing it could possibly do now. */
    bool workerShouldSleep(int worker) const;
    /** Nudge parked workers (ring push, retry fire, MTL raise...). */
    void wakeWorkers();

    // Four groups by who writes them, each on its own cache lines
    // (docs/substrate.md, "Member layout"). First the read-mostly run
    // state: set before the workers start, read on every attempt.
    const stream::TaskGraph &graph_;
    core::SchedulingPolicy &policy_;
    const EngineOptions &options_;
    ExecutionBackend *backend_ = nullptr;
    /** backend->pullDispatch(): worker threads pop the rings. */
    bool pull_mode_ = false;
    bool open_loop_ = false; ///< see EngineOptions::arrival_plan
    std::vector<std::vector<stream::TaskId>> succs_;
    std::vector<PairSlot> pairs_;       ///< one per pair
    std::vector<ContextSlot> contexts_; ///< one per execution context
    /** Ready tasks, FIFO per kind, sized to the pair count: a task
     *  is enqueued at most once (a failed attempt stays reserved on
     *  its context), so pushes cannot fail. */
    std::optional<util::MpmcQueue<stream::TaskId>> ready_memory_;
    std::optional<util::MpmcQueue<stream::TaskId>> ready_compute_;
    std::optional<util::MtlGate> gate_; ///< memory tasks in flight
    /** The hot-path metrics (set when options_.metrics is), by id:
     *  one shard per worker thread; none for a single dispatcher,
     *  which writes the registry directly. */
    std::optional<obs::ShardedMetrics> metric_shards_;
    /** Ids of the fixed hot metrics, interned once per run. The
     *  per-job counters are written under mutex_, straight to the
     *  registry's slots; the rest go through metric_shards_. */
    struct HotIds
    {
        obs::ShardedMetrics::HistogramId ready_memory_depth;
        obs::ShardedMetrics::HistogramId ready_compute_depth;
        obs::ShardedMetrics::HistogramId response_seconds;
        obs::ShardedMetrics::HistogramId queue_wait_seconds;
        obs::ShardedMetrics::CounterId worker_parks;
        MetricsRegistry::CounterId jobs_admitted;
        MetricsRegistry::CounterId jobs_delayed;
        MetricsRegistry::CounterId jobs_shed;
        MetricsRegistry::CounterId jobs_deadline_missed;
    };
    HotIds hot_ids_;
    /** Per pair, its span's arrival on the engine clock: the
     *  admission stamp (open loop, shed jobs included) or the instant
     *  its memory task became ready (closed loop). Written before the
     *  memory task is enqueued. */
    std::vector<double> job_arrival_stamp_;
    std::vector<double> job_slo_; ///< open loop, per pair, seconds
    /** Per pair and side, the successful attempt's hw-counter delta;
     *  allocated only when options_.counters is set. */
    std::vector<std::array<std::optional<obs::perf::CounterSet>, 2>>
        pair_counters_;
    /** policy_.currentMtl() mirrored after every policy interaction
     *  (all under mutex_); tryDispatch reads it lock-free as the
     *  admission bound. */
    std::atomic<int> mtl_cache_{0};
    // run_failed_ is written under mutex_ but read lock-free by
    // completions, sleeping workers and the crash-dump path;
    // run_complete_ gates late timer callbacks (watchdog, ticks).
    std::atomic<bool> run_failed_{false};
    std::atomic<bool> run_complete_{false};

    // The combining hand-off, written by every compute completion:
    // pairs linked through PairSlot::next, newest first, and a token.
    alignas(64) std::atomic<stream::PairId> handoff_head_{kNoPair};
    std::atomic<bool> combining_{false};

    // The scheduler mutex and the state it guards, open-loop
    // arrivals and admission first.
    alignas(64) std::mutex mutex_;
    std::size_t next_job_ = 0;      ///< next undelivered plan job
    double scheduled_arrival_ = 0.0; ///< plan offset the timer targets
    ExecutionBackend::TimerToken arrival_token_ = 0;
    std::optional<load::AdmissionController> admission_;
    core::BackpressureState backpressure_ =
        core::BackpressureState::Accept;
    long jobs_admitted_ = 0;
    long jobs_delayed_ = 0;
    long jobs_shed_ = 0; ///< shed pairs, whose tasks never run
    long jobs_deadline_missed_ = 0;
    std::vector<JobRecord> job_log_;
    std::vector<double> response_log_;

    int current_phase_ = -1;
    /** Compute tasks of the current phase not yet completed. Only
     *  compute completions count (a memory task is never the last of
     *  its phase), and they count as their pairs are drained. */
    int phase_remaining_ = 0;
    bool started_ = false;
    bool finished_ = false;

    std::vector<core::PairSample> samples_;
    /** Every failed attempt, in judgement order: the granted retries
     *  (RunResult::retries) and the spans' failed attempts. */
    std::vector<FailedAttempt> failed_attempts_;

    // Pairs in terminal order, once each, appended only under mutex_
    // (admitJobLocked, failAttemptLocked, completePairLocked).
    std::vector<stream::PairId> terminal_pairs_;

    // Self-observability: wall-clock nanoseconds spent inside
    // observability code (steady clock on every backend -- this is
    // the *real* cost of tracing, not simulated time), published as
    // obs.overhead.* counters. Time-series rows accumulate here;
    // finishResult times the trace and span build itself.
    std::uint64_t obs_sampler_ns_ = 0;

    /** Streaming health engine (options_.health.enabled), driven
     *  under mutex_; it times and publishes itself. */
    std::optional<obs::HealthEngine> health_;

    // Fault tolerance.
    std::string failure_reason_;
    std::atomic<long> task_retries_{0};
    long task_failures_ = 0;
    bool watchdog_fired_ = false;

    ExecutionBackend::TimerToken watchdog_token_ = 0;
    // The observation ticks re-arm their own token *outside* the
    // scheduler mutex, racing with the cancel at finish; atomic
    // tokens keep that race benign (a stray timer is gated by
    // run_complete_). Indexed by ObsTick.
    std::array<std::atomic<ExecutionBackend::TimerToken>, 3>
        tick_token_{};
    double drain_seconds_ = -1.0; ///< engine clock at finish

    // Parking lot for idle workers. parked_ is a fast-path hint so
    // producers skip the lot entirely while everyone is busy; the
    // generation counter (under park_mutex_) makes wake-ups sticky
    // across the register-then-recheck race.
    alignas(64) std::mutex park_mutex_;
    std::condition_variable park_cv_;
    std::atomic<int> parked_{0};
    std::uint64_t park_gen_ = 0;
    /** Wake-ups that actually notified the lot (counted under
     *  park_mutex_ on the already-slow notify path); parks are
     *  counted per worker through the metric shards. */
    std::uint64_t wake_notifies_ = 0;
};

/**
 * Couple a run's event trace with the policy's MTL transition log
 * and the graph's phase names, ready for obs::writeChromeTrace.
 */
obs::TraceData toTraceData(const stream::TaskGraph &graph,
                           const RunResult &result);

/**
 * Check the structural invariants of a recorded schedule against its
 * graph:
 *  - every task ran exactly once, with end >= start;
 *  - no two tasks overlap on one context;
 *  - at every memory-task start instant, the number of memory tasks
 *    in flight (including the new one) is within the MTL the policy
 *    had published at that moment;
 *  - a task starts only after its dependencies finished;
 *  - phase barriers hold: no task of phase p+1 starts before every
 *    task of phase p ended.
 *
 * Returns an empty string when the schedule is valid, otherwise a
 * description of the first violation (for test diagnostics).
 */
std::string validateSchedule(const stream::TaskGraph &graph,
                             const RunResult &result, int contexts);

} // namespace tt::exec

#endif // TT_EXEC_ENGINE_HH
