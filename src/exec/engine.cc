#include "exec/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <tuple>

#include "core/sample_guard.hh"
#include "obs/live.hh"
#include "obs/timeseries.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace tt::exec {

using stream::Task;
using stream::TaskId;
using stream::TaskKind;

namespace {

/** Records an output capacity keeps (a zero capacity keeps one). */
std::size_t
outputCap(std::size_t capacity)
{
    return std::max<std::size_t>(capacity, 1);
}

/** `task`'s index in its PairSlot's per-task arrays. */
std::size_t
sideOf(const Task &task)
{
    return static_cast<std::size_t>(task.kind);
}

} // namespace

void
ExecutionBackend::terminateProcess(int exit_code)
{
    std::fflush(nullptr);
    std::_Exit(exit_code);
}

Engine::Engine(const stream::TaskGraph &graph,
               core::SchedulingPolicy &policy,
               const EngineOptions &options)
    : graph_(graph), policy_(policy), options_(options)
{
    tt_assert(options_.max_task_retries >= 0,
              "retry budget cannot be negative");
    tt_assert(options_.retry_backoff_seconds >= 0.0,
              "backoff cannot be negative");
    tt_assert(options_.timeseries_out == nullptr ||
                  options_.timeseries_interval_seconds > 0.0,
              "sampling interval must be positive");
    tt_assert((options_.live_sink == nullptr &&
               options_.metrics == nullptr) ||
                  options_.live_interval_seconds > 0.0,
              "live snapshot interval must be positive");
    tt_assert(!options_.health.enabled ||
                  options_.health.tick_seconds > 0.0,
              "health tick must be positive");

    succs_.assign(static_cast<std::size_t>(graph_.taskCount()), {});
    const auto n_pairs = static_cast<std::size_t>(graph_.pairCount());
    pairs_ = std::vector<PairSlot>(n_pairs);
    job_arrival_stamp_.assign(n_pairs, 0.0);
    for (const Task &task : graph_.tasks()) {
        pairs_[static_cast<std::size_t>(task.pair)]
            .deps_left[sideOf(task)]
            .store(static_cast<int>(task.deps.size()),
                   std::memory_order_relaxed);
        for (TaskId dep : task.deps)
            succs_[static_cast<std::size_t>(dep)].push_back(task.id);
    }

    if (options_.arrival_plan != nullptr &&
        !options_.arrival_plan->empty()) {
        open_loop_ = true;
        tt_assert(graph_.phaseCount() == 1,
                  "open-loop runs require a single-phase graph "
                  "(arrivals replace phase barriers)");
        tt_assert(static_cast<int>(options_.arrival_plan->size()) ==
                      graph_.pairCount(),
                  "arrival plan offers ",
                  options_.arrival_plan->size(), " jobs for ",
                  graph_.pairCount(), " pairs");
        job_slo_.assign(static_cast<std::size_t>(graph_.pairCount()),
                        0.0);
        for (const load::JobSpec &job : options_.arrival_plan->jobs) {
            tt_assert(job.pair >= 0 && job.pair < graph_.pairCount(),
                      "arrival plan names pair ", job.pair,
                      " outside the graph");
            tt_assert(pairs_[static_cast<std::size_t>(job.pair)]
                              .deps_left[0]
                              .load(std::memory_order_relaxed) == 0,
                      "open-loop pairs must have dependency-free memory "
                      "tasks");
        }
    }
}

void
Engine::activatePhaseLocked(int phase, double now)
{
    current_phase_ = phase;
    // The barrier counts compute tasks: a memory task is never the
    // last of its phase (its compute successor completes later).
    int count = 0;
    for (const Task &task : graph_.tasks())
        if (task.phase == phase && task.kind == TaskKind::Compute)
            ++count;
    phase_remaining_ = count;
    // Snapshot the initially-ready set BEFORE the first enqueue. An
    // enqueued task is instantly poppable: a worker thread can run
    // and complete it lock-free while this loop is still scanning,
    // releasing a same-phase compute successor whose deps_left then
    // reads zero -- tripping the memory-only invariant, which holds
    // for the pre-activation state only.
    std::vector<const Task *> initially_ready;
    for (const Task &task : graph_.tasks()) {
        if (task.phase != phase)
            continue;
        if (pairs_[static_cast<std::size_t>(task.pair)]
                .deps_left[sideOf(task)]
                .load(std::memory_order_relaxed) == 0) {
            tt_assert(task.kind == TaskKind::Memory,
                      "only memory tasks can be initially ready");
            initially_ready.push_back(&task);
        }
    }
    for (const Task *task : initially_ready) {
        // Closed-loop spans: the pair's "arrival" is the barrier
        // instant its memory task became runnable.
        job_arrival_stamp_[static_cast<std::size_t>(task->pair)] = now;
        enqueueReady(task->id);
    }
    tt_assert(count > 0 || graph_.empty(), "phase ", phase,
              " has no tasks");
}

void
Engine::enqueueReady(TaskId id)
{
    auto &ring = graph_.task(id).kind == TaskKind::Memory
                     ? *ready_memory_
                     : *ready_compute_;
    const bool ok = ring.tryPush(id);
    tt_assert(ok, "ready ring overflow (sized to the pair count)");
    wakeWorkers();
}

void
Engine::processArrivalsLocked(double upto)
{
    const auto &jobs = options_.arrival_plan->jobs;
    while (next_job_ < jobs.size() &&
           jobs[next_job_].arrival_seconds <= upto + 1e-12) {
        admitJobLocked(jobs[next_job_]);
        ++next_job_;
    }
}

void
Engine::scheduleNextArrivalLocked(double from)
{
    const auto &jobs = options_.arrival_plan->jobs;
    if (next_job_ >= jobs.size())
        return;
    scheduled_arrival_ = jobs[next_job_].arrival_seconds;
    arrival_token_ =
        backend_->after(std::max(scheduled_arrival_ - from, 0.0),
                        [this] { onArrivalTimer(); });
}

void
Engine::onArrivalTimer()
{
    std::lock_guard lock(mutex_);
    arrival_token_ = 0;
    if (finished_)
        return;
    if (run_failed_.load(std::memory_order_relaxed)) {
        // Stop offering work into a failed run; the jobs never
        // reached admission, so they are abandoned, not shed.
        next_job_ = options_.arrival_plan->size();
        maybeFinishLocked();
        return;
    }
    // Decisions key off the *plan* offset the timer targeted, not
    // the (jittery on host) clock reading, so both backends feed the
    // admission model identical inputs.
    processArrivalsLocked(scheduled_arrival_);
    scheduleNextArrivalLocked(scheduled_arrival_);
    tryScheduleLocked();
    maybeFinishLocked();
}

void
Engine::admitJobLocked(const load::JobSpec &job)
{
    const load::AdmissionOutcome out = admission_->onArrival(job);

    JobRecord record;
    record.pair = job.pair;
    record.arrival_seconds = job.arrival_seconds;
    record.priority = job.priority;
    record.decision = out.decision;
    record.shed_reason = out.shed_reason;
    record.state = out.state;
    record.backlog = out.backlog;
    record.predicted_response = out.predicted_response;
    job_log_.push_back(record);

    MetricsRegistry *metrics = options_.metrics;
    const auto pair = static_cast<std::size_t>(job.pair);
    // Deadlines are judged on the engine clock: exact plan time on
    // the sim backend, the arrival timer's wall-clock firing on the
    // host (see docs/robustness.md).
    job_arrival_stamp_[pair] = backend_->now();
    if (out.decision == load::AdmissionDecision::Shed) {
        // Shed before dispatch: the pair's two tasks never run and
        // the drain condition accounts for them explicitly. Its span
        // is terminal at the verdict.
        ++jobs_shed_;
        if (metrics != nullptr)
            metrics->add(hot_ids_.jobs_shed);
        terminal_pairs_.push_back(job.pair);
    } else {
        ++jobs_admitted_;
        if (metrics != nullptr)
            metrics->add(hot_ids_.jobs_admitted);
        if (out.decision == load::AdmissionDecision::Delay) {
            ++jobs_delayed_;
            if (metrics != nullptr)
                metrics->add(hot_ids_.jobs_delayed);
        }
        job_slo_[pair] = job.slo_seconds;
        enqueueReady(graph_.memoryTaskOf(job.pair));
    }

    if (out.state != backpressure_) {
        backpressure_ = out.state;
        if (metrics != nullptr)
            metrics->set("runtime.backpressure_state",
                         static_cast<double>(out.state));
        policy_.onBackpressure(backend_->now(), out.state,
                               out.backlog);
        // The policy may re-pin its MTL on a SHED transition.
        refreshMtlCacheLocked();
    }

    if (health_.has_value())
        health_->onJobVerdict(out.decision == load::AdmissionDecision::Shed,
                              out.predicted_response, job.slo_seconds,
                              out.backlog, backend_->now());
}

void
Engine::tryScheduleLocked()
{
    if (pull_mode_)
        return; // workers pull their own work off the rings
    if (run_failed_.load(std::memory_order_relaxed) || finished_)
        return; // aborting: let in-flight tasks drain, dispatch nothing
    // Lowest-numbered idle context first: on the sim backend this
    // fills distinct physical cores before SMT siblings (see
    // SimMachine::coreOf); elsewhere it is simply deterministic.
    // Admissibility does not depend on the context, so the first
    // refusal ends the scan.
    const int n = static_cast<int>(contexts_.size());
    for (int c = 0; c < n; ++c) {
        if (contexts_[static_cast<std::size_t>(c)].running.load(
                std::memory_order_relaxed) != stream::kInvalidTask)
            continue;
        AttemptSpec spec;
        if (!tryDispatch(c, spec))
            return;
        backend_->startAttempt(c, spec);
    }
}

bool
Engine::tryDispatch(int context, AttemptSpec &spec)
{
    const auto c = static_cast<std::size_t>(context);
    const int mtl = mtl_cache_.load(std::memory_order_seq_cst);
    TaskId id = stream::kInvalidTask;
    // Compute first: compute is never throttled (Sec. V).
    if (!ready_compute_->tryPop(id)) {
        if (ready_memory_->emptyApprox())
            return false;
        // The push scan is the only dispatcher, so it probes the gate
        // first and never records a full MTL as a refusal.
        if (!pull_mode_ && gate_->current() >= mtl)
            return false;
        if (!gate_->tryAcquire(c, mtl))
            return false;
        if (!ready_memory_->tryPop(id)) {
            // Another worker drained the ring between the probe and
            // the pop; give the slot back.
            gate_->release();
            return false;
        }
    }
    const Task &task = graph_.task(id);
    contexts_[c].running.store(id, std::memory_order_relaxed);
    // Fresh dispatches are always attempt 0: failed tasks never
    // requeue (the retry stays reserved on its context), so this
    // field is quiescent for everyone else.
    pairs_[static_cast<std::size_t>(task.pair)].mtl[sideOf(task)] =
        static_cast<std::int16_t>(mtl);
    spec = attemptSpec(id);
    return true;
}

AttemptSpec
Engine::attemptSpec(TaskId id) const
{
    const Task &task = graph_.task(id);
    AttemptSpec spec;
    spec.task = id;
    spec.attempt =
        pairs_[static_cast<std::size_t>(task.pair)].attempts[sideOf(task)];
    spec.rerun_memory_first =
        spec.attempt > 0 && task.kind == TaskKind::Compute;
    const fault::FaultPlan *plan = options_.fault_plan;
    if (plan != nullptr && plan->enabled()) {
        spec.faults = plan->forTask(id, spec.attempt);
        spec.stall_seconds = plan->config().stall_seconds;
    }
    return spec;
}

void
Engine::onAttemptDone(int context, const AttemptOutcome &outcome)
{
    const TaskId id = contexts_[static_cast<std::size_t>(context)]
                          .running.load(std::memory_order_relaxed);
    if (!outcome.failed) {
        completeAttempt(context, id, outcome);
        return;
    }
    std::lock_guard lock(mutex_);
    failAttemptLocked(context, id, outcome);
    tryScheduleLocked();
    maybeFinishLocked();
}

void
Engine::failAttemptLocked(int context, TaskId id,
                          const AttemptOutcome &outcome)
{
    const Task &task = graph_.task(id);
    int &attempts =
        pairs_[static_cast<std::size_t>(task.pair)].attempts[sideOf(task)];
    const int attempt = attempts;
    FailedAttempt failed;
    failed.attempt.task = id;
    failed.attempt.is_memory = task.kind == TaskKind::Memory;
    failed.attempt.attempt = attempt;
    failed.attempt.worker = context;
    failed.attempt.start = outcome.start;
    failed.attempt.end = outcome.end;
    failed.attempt.failed = true;
    failed.attempt.has_counters = outcome.has_counters;
    if (outcome.has_counters)
        failed.attempt.counters = outcome.counters;
    if (!run_failed_.load(std::memory_order_relaxed) &&
        attempt < options_.max_task_retries) {
        failed.attempt.backoff_seconds =
            std::min(options_.retry_backoff_seconds *
                         std::ldexp(1.0, attempt),
                     50e-3);
        failed_attempts_.push_back(failed);
        ++attempts;
        task_retries_.fetch_add(1, std::memory_order_relaxed);
        if (MetricsRegistry *metrics = options_.metrics)
            metrics->add("runtime.task_retries", 1);
        // The context stays reserved through the backoff (its gate
        // slot included, for memory tasks), so the retry cannot be
        // starved out by fresh dispatches.
        ContextSlot &slot = contexts_[static_cast<std::size_t>(context)];
        slot.retry.store(RetryState::Backoff, std::memory_order_relaxed);
        slot.retry_token =
            backend_->after(failed.attempt.backoff_seconds,
                            [this, context] { onRetryTimer(context); });
        return;
    }

    failed.terminal = true;
    failed_attempts_.push_back(failed);
    ++task_failures_;
    if (MetricsRegistry *metrics = options_.metrics)
        metrics->add("runtime.task_failures", 1);
    abandonAttemptLocked(context);
    markRunFailedLocked("task " + std::to_string(id) +
                        " failed after " +
                        std::to_string(options_.max_task_retries) +
                        " retries: " + outcome.error);
    terminal_pairs_.push_back(task.pair);
}

void
Engine::onRetryTimer(int context)
{
    std::lock_guard lock(mutex_);
    ContextSlot &slot = contexts_[static_cast<std::size_t>(context)];
    if (slot.retry.load(std::memory_order_relaxed) !=
            RetryState::Backoff ||
        finished_)
        return; // cancelled (a failed run abandoned the reservation)
    slot.retry_token = 0;
    if (!pull_mode_) {
        slot.retry.store(RetryState::None, std::memory_order_relaxed);
        backend_->startAttempt(
            context,
            attemptSpec(slot.running.load(std::memory_order_relaxed)));
        return;
    }
    // Hand the retry to its owning worker in one store, so the
    // context never reads as free in between. The worker checks
    // run_failed_ itself and abandons instead of re-running if the
    // run aborted between this hand-off and its pickup.
    slot.retry.store(RetryState::Due, std::memory_order_seq_cst);
    wakeWorkers();
}

void
Engine::completeAttempt(int context, TaskId id,
                        const AttemptOutcome &outcome)
{
    const auto c = static_cast<std::size_t>(context);
    ContextSlot &slot = contexts_[c];
    const Task &task = graph_.task(id);
    const bool memory = task.kind == TaskKind::Memory;
    const auto p = static_cast<std::size_t>(task.pair);
    PairSlot &pair = pairs_[p];
    // The successful attempt, which the trace event and the span show
    // after the run (a failed attempt never reaches here).
    const std::size_t side = sideOf(task);
    pair.start[side] = outcome.start;
    pair.end[side] = outcome.end;
    pair.worker[side] = static_cast<std::int16_t>(context);
    if (outcome.has_counters && !pair_counters_.empty())
        pair_counters_[p][side] = outcome.counters;
    // This completion's histogram observations, published together
    // under one lock once the ready depths are read.
    std::array<obs::ShardedMetrics::Observation, 6> batch;
    std::size_t n = 0;
    if (memory) {
        gate_->release();
    } else {
        // Pair complete. Everything up to the hand-off is pair-local:
        // the memory task's times and MTL and the pair's job stamps
        // were published to this thread along the pair's dependency
        // chain, and the metrics go to this context's shard.
        const core::PairSample sample = pairSample(task.pair);
        if (metric_shards_.has_value() && std::isfinite(sample.tm) &&
            std::isfinite(sample.tc)) {
            const MtlIds ids = pairTimeIds(context, sample.mtl);
            batch[n++] = {ids.tm, sample.tm};
            batch[n++] = {ids.tc, sample.tc};
        }
        if (open_loop_) {
            // Deadline accounting against the *actual* completion:
            // the admission model predicted, this is ground truth.
            const double arrival = job_arrival_stamp_[p];
            const double response = outcome.end - arrival;
            batch[n++] = {hot_ids_.response_seconds, std::max(response, 0.0)};
            batch[n++] = {hot_ids_.queue_wait_seconds,
                          std::max(pair.start[0] - arrival, 0.0)};
            pair.deadline_missed = job_slo_[p] > 0.0 && response > job_slo_[p];
        }
    }
    if (metric_shards_.has_value()) {
        batch[n++] = {hot_ids_.ready_memory_depth,
                      static_cast<double>(ready_memory_->sizeApprox())};
        batch[n++] = {hot_ids_.ready_compute_depth,
                      static_cast<double>(ready_compute_->sizeApprox())};
        metric_shards_->observe(c, {batch.data(), n});
    }
    const TaskId partner = unlockSuccessors(id, outcome.end);
    slot.done.store(slot.done.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    if (partner != stream::kInvalidTask) {
        // Keep the partner, due to run next: the reservation passes
        // from the memory task to its compute task and the context
        // never reads idle, so a failed run's finish check waits
        // until nextAttempt has run the partner or abandoned it.
        pair.mtl[1] = static_cast<std::int16_t>(
            mtl_cache_.load(std::memory_order_relaxed));
        slot.running.store(partner, std::memory_order_relaxed);
        slot.retry.store(RetryState::Due, std::memory_order_relaxed);
        wakeWorkers(); // the freed gate slot may unblock a parked worker
        return;
    }
    if (!memory) {
        // Push the pair before the context is released, so that a
        // finish check that reads the context idle drains the pair.
        stream::PairId head = handoff_head_.load(std::memory_order_relaxed);
        do
            pair.next = head;
        while (!handoff_head_.compare_exchange_weak(
            head, task.pair, std::memory_order_seq_cst,
            std::memory_order_relaxed));
    }
    // Release the context last, and seq_cst: against the run_failed_
    // load below, a failing thread's finish check either sees this
    // context idle or this worker sees the failure and runs the check
    // itself -- and that check drains the list.
    slot.running.store(stream::kInvalidTask, std::memory_order_seq_cst);
    if (memory)
        wakeWorkers(); // the freed gate slot may unblock a parked worker
    if (!run_failed_.load(std::memory_order_seq_cst)) {
        if (!memory) {
            combinePairs();
            return;
        }
        if (pull_mode_)
            return; // a worker thread pulls its next attempt itself
    }
    std::lock_guard lock(mutex_);
    tryScheduleLocked();
    maybeFinishLocked();
}

core::PairSample
Engine::pairSample(stream::PairId pair) const
{
    const PairSlot &slot = pairs_[static_cast<std::size_t>(pair)];
    core::PairSample sample;
    sample.tm = slot.end[0] - slot.start[0];
    sample.tc = slot.end[1] - slot.start[1];
    sample.end_time = slot.end[1];
    sample.mtl = slot.mtl[0];
    if (options_.fault_plan && options_.fault_plan->enabled()) {
        // Corruption models a broken clock read at measurement
        // time. Keyed by the compute task with attempt 0 so the
        // same pairs corrupt regardless of retry history -- and
        // identically on every backend.
        const TaskId id = graph_.computeTaskOf(pair);
        if (options_.fault_plan->forTask(id, 0).corrupt_sample) {
            sample.tm = options_.fault_plan->corruptValue(id, 0);
            sample.tc = options_.fault_plan->corruptValue(id, 1);
        }
    }
    return sample;
}

void
Engine::combinePairs()
{
    // Flat combining: the token holder drains every pair pushed so
    // far, and a completion that finds the token held goes back to
    // work. The link CAS, the token exchange, the token-clearing
    // store and the re-check below are all seq_cst, so in their
    // single total order a push that lost the token race precedes
    // the holder's re-check, which sees it (the store-buffer
    // argument, docs/substrate.md).
    while (handoff_head_.load(std::memory_order_seq_cst) != kNoPair &&
           !combining_.exchange(true, std::memory_order_seq_cst)) {
        {
            std::lock_guard lock(mutex_);
            maybeFinishLocked(); // drains the list first
            tryScheduleLocked();
        }
        combining_.store(false, std::memory_order_seq_cst);
    }
}

void
Engine::drainPairsLocked()
{
    // The list links newest first: reverse it, so the policy sees the
    // pairs in push order.
    stream::PairId pair =
        handoff_head_.exchange(kNoPair, std::memory_order_seq_cst);
    stream::PairId first = kNoPair;
    while (pair != kNoPair) {
        PairSlot &slot = pairs_[static_cast<std::size_t>(pair)];
        first = std::exchange(pair, std::exchange(slot.next, first));
    }
    for (stream::PairId newer; first != kNoPair; first = newer) {
        newer = pairs_[static_cast<std::size_t>(first)].next;
        completePairLocked(first);
    }
}

void
Engine::completePairLocked(stream::PairId pair)
{
    const auto p = static_cast<std::size_t>(pair);
    const core::PairSample sample = pairSample(pair);
    backend_->pairCompleted(graph_.task(graph_.memoryTaskOf(pair)));
    samples_.push_back(sample);
    policy_.onPairMeasured(sample);
    refreshMtlCacheLocked();
    if (health_.has_value())
        health_->onPairMeasured(sample.tm, sample.mtl);
    if (open_loop_) {
        response_log_.push_back(sample.end_time - job_arrival_stamp_[p]);
        if (pairs_[p].deadline_missed) {
            ++jobs_deadline_missed_;
            if (MetricsRegistry *metrics = options_.metrics)
                metrics->add(hot_ids_.jobs_deadline_missed);
        }
    }
    terminal_pairs_.push_back(pair);

    if (--phase_remaining_ == 0 &&
        current_phase_ + 1 < graph_.phaseCount()) {
        tt_assert(ready_memory_->emptyApprox() &&
                      ready_compute_->emptyApprox(),
                  "ready tasks left at a phase barrier");
        activatePhaseLocked(current_phase_ + 1, sample.end_time);
    }
}

Engine::MtlIds
Engine::pairTimeIds(int context, int mtl)
{
    std::vector<MtlIds> &cache =
        contexts_[static_cast<std::size_t>(context)].mtl_ids;
    const auto k = static_cast<std::size_t>(std::max(mtl, 0));
    if (mtl >= 0 && k < cache.size() && cache[k].resolved)
        return cache[k];
    const std::string suffix = ".mtl=" + std::to_string(mtl);
    const MtlIds ids{
        metric_shards_->histogram("runtime.tm_seconds" + suffix),
        metric_shards_->histogram("runtime.tc_seconds" + suffix), true};
    if (mtl >= 0) {
        cache.resize(std::max(cache.size(), k + 1));
        cache[k] = ids;
    }
    return ids;
}

TaskId
Engine::unlockSuccessors(TaskId id, double now)
{
    // The final decrement (acq_rel) publishes this task's completion
    // state -- its times above all -- to whichever worker later pops
    // the successor off a ring.
    const stream::PairId own_pair = graph_.task(id).pair;
    TaskId partner = stream::kInvalidTask;
    for (TaskId succ : succs_[static_cast<std::size_t>(id)]) {
        const Task &task = graph_.task(succ);
        if (pairs_[static_cast<std::size_t>(task.pair)]
                .deps_left[sideOf(task)]
                .fetch_sub(1, std::memory_order_acq_rel) != 1)
            continue;
        if (task.kind == TaskKind::Memory) {
            // A dependency-unlocked memory task is runnable from
            // this completion on: its pair's closed-loop arrival.
            job_arrival_stamp_[static_cast<std::size_t>(task.pair)] = now;
        } else if (pull_mode_ && task.pair == own_pair) {
            // A memory task released its own compute partner, which
            // runs next on this context, on the data just gathered.
            partner = succ;
            continue;
        }
        enqueueReady(succ);
    }
    return partner;
}

int
Engine::tasksDone() const
{
    int done = 0;
    for (const ContextSlot &slot : contexts_)
        done += slot.done.load(std::memory_order_relaxed);
    return done;
}

void
Engine::markRunFailedLocked(const std::string &reason)
{
    if (run_failed_.load(std::memory_order_relaxed))
        return;
    failure_reason_ = reason;
    run_failed_.store(true, std::memory_order_seq_cst);
    tt_warn("aborting run: ", failure_reason_);
    abandonPendingRetriesLocked();
    wakeWorkers(); // parked workers re-evaluate into drain mode
}

void
Engine::abandonAttemptLocked(int context)
{
    // The task never (re-)ran to completion: its reservation -- gate
    // slot included -- goes back. Only a task that exhausted its
    // retries counts as a failure, and the caller counts it.
    const auto c = static_cast<std::size_t>(context);
    const TaskId id = contexts_[c].running.load(std::memory_order_relaxed);
    if (graph_.task(id).kind == TaskKind::Memory)
        gate_->release();
    contexts_[c].running.store(stream::kInvalidTask,
                               std::memory_order_relaxed);
}

void
Engine::abandonPendingRetriesLocked()
{
    const int n = static_cast<int>(contexts_.size());
    for (int c = 0; c < n; ++c) {
        // Only a retry still in backoff is ours to abandon: a Due one
        // belongs to its worker, which abandons it on seeing
        // run_failed_.
        ContextSlot &slot = contexts_[static_cast<std::size_t>(c)];
        if (slot.retry.load(std::memory_order_relaxed) !=
            RetryState::Backoff)
            continue;
        slot.retry.store(RetryState::None, std::memory_order_relaxed);
        backend_->cancel(slot.retry_token);
        slot.retry_token = 0;
        abandonAttemptLocked(c);
    }
}

void
Engine::maybeFinishLocked()
{
    // A failed run finishes once idle: a context stays reserved
    // through its running body *and* its retry backoff, so no
    // reservation means every in-flight attempt has delivered. A
    // compute completion pushes its pair before it releases its
    // context, so the drain below, after the scan, takes every pair
    // an idle context handed off.
    bool idle = run_failed_.load(std::memory_order_relaxed);
    for (const ContextSlot &slot : contexts_)
        idle = idle && slot.running.load(std::memory_order_seq_cst) ==
                           stream::kInvalidTask;
    drainPairsLocked();
    if (finished_)
        return;
    // Drained once every pair completed (its sample is appended as it
    // is drained, and a pair's memory task completes before its
    // compute task dispatches) or was shed -- and, open-loop, once
    // every plan job was delivered.
    const bool drained =
        (!open_loop_ || next_job_ >= options_.arrival_plan->size()) &&
        static_cast<long>(samples_.size()) + jobs_shed_ ==
            graph_.pairCount();
    if (!drained && !idle)
        return;
    finished_ = true;
    drain_seconds_ = backend_->now();
    run_complete_.store(true, std::memory_order_seq_cst);
    wakeWorkers(); // parked workers observe run_complete_, exit
    for (ExecutionBackend::TimerToken *token :
         {&watchdog_token_, &arrival_token_}) {
        if (*token != 0)
            backend_->cancel(*token);
        *token = 0;
    }
    for (auto &tick : tick_token_)
        if (const auto token = tick.exchange(0, std::memory_order_acq_rel);
            token != 0)
            backend_->cancel(token);
    // Final shard fold so the drain-time row/snapshot (and any late
    // scrape) see fully caught-up registry values.
    if (metric_shards_.has_value())
        metric_shards_->fold();
    // Flush partial health windows before the drain-time row and
    // snapshot so both carry the final alert state.
    if (health_.has_value())
        health_->onDrain(hotPathTotals(), drain_seconds_);
    if (options_.timeseries_out != nullptr) {
        // Final row so even a sub-interval run leaves a snapshot
        // behind; stamped at drain time so it cannot extend the
        // reported makespan.
        emitTimeseriesRowLocked();
        options_.timeseries_out->flush();
    }
    // Drain-time snapshot so even a sub-interval run leaves a
    // readable OpenMetrics file behind. The sink charges its own
    // rendering cost to obs.overhead.live_export_ns.
    if (options_.live_sink != nullptr)
        options_.live_sink->snapshot(drain_seconds_);
    backend_->runDrained();
}

void
Engine::onWatchdogDeadline()
{
    if (run_complete_.load(std::memory_order_relaxed))
        return; // drained while the deadline callback was in flight
    if (MetricsRegistry *metrics = options_.metrics)
        metrics->add("runtime.watchdog_fired", 1);

    if (backend_->watchdogTerminatesProcess()) {
        std::fprintf(
            stderr,
            "tt: watchdog: run exceeded %.3f s deadline; dumping "
            "diagnostics and exiting with code %d\n",
            options_.watchdog_seconds, kWatchdogExitCode);
        runCrashDumpHooks(); // includes this engine's crashDump()
        std::fflush(nullptr);
        // Workers may be wedged holding locks; a normal exit would
        // hang in their joins/destructors, so leave without unwinding.
        backend_->terminateProcess(kWatchdogExitCode);
        return;
    }

    // Backends without real threads (sim, mocks) cannot wedge: fail
    // the run in-band through the same diagnostics path and let any
    // in-flight attempts drain.
    std::fprintf(stderr,
                 "tt: watchdog: run exceeded %.3f s deadline; failing "
                 "the run\n",
                 options_.watchdog_seconds);
    std::lock_guard lock(mutex_);
    if (finished_)
        return;
    watchdog_fired_ = true;
    watchdog_token_ = 0;
    char reason[96];
    std::snprintf(reason, sizeof reason,
                  "watchdog: run exceeded %.3f s deadline",
                  options_.watchdog_seconds);
    markRunFailedLocked(reason);
    maybeFinishLocked();
}

void
Engine::onObsTick(ObsTick tick)
{
    if (run_complete_.load(std::memory_order_acquire))
        return; // drained while this callback was in flight
    {
        std::lock_guard lock(mutex_);
        if (finished_)
            return;
        // Every tick folds, so the registry -- flushed by crash-dump
        // hooks, polled by in-process readers -- is at most one tick
        // behind the workers.
        if (metric_shards_.has_value())
            metric_shards_->fold();
        switch (tick) {
          case ObsTick::Health:
            health_->onTick(hotPathTotals(), backend_->now());
            break;
          case ObsTick::Timeseries:
            emitTimeseriesRowLocked();
            break;
          case ObsTick::Live:
            if (options_.live_sink != nullptr)
                options_.live_sink->snapshot(backend_->now());
            break;
        }
    }
    // Re-armed outside the mutex; the race against the cancel at
    // finish is benign (a stray tick bails on run_complete_).
    armObsTick(tick);
}

void
Engine::armObsTick(ObsTick tick)
{
    double period = options_.live_interval_seconds;
    if (tick == ObsTick::Health)
        period = health_->config().tick_seconds;
    else if (tick == ObsTick::Timeseries)
        period = options_.timeseries_interval_seconds;
    tick_token_[static_cast<std::size_t>(tick)].store(
        backend_->after(std::max(period, 1e-6),
                        [this, tick] { onObsTick(tick); }),
        std::memory_order_release);
}

obs::HotPathTotals
Engine::hotPathTotals() const
{
    // The push scan probes the gate exactly before admitting, so gate
    // rejections stay 0 on single-dispatcher backends by
    // construction.
    const std::size_t spans = terminal_pairs_.size();
    return {gate_->admitFailures(), gate_->folds(), traceDropped(),
            spans - std::min(spans, outputCap(options_.span_capacity)),
            static_cast<std::uint64_t>(tasksDone()) + spans};
}

std::uint64_t
Engine::traceDropped() const
{
    const std::size_t cap = outputCap(options_.trace_capacity);
    std::uint64_t dropped = 0;
    for (const ContextSlot &slot : contexts_) {
        const auto done = static_cast<std::size_t>(
            slot.done.load(std::memory_order_relaxed));
        dropped += done > cap ? done - cap : 0;
    }
    return dropped;
}

void
Engine::emitTimeseriesRowLocked()
{
    const std::uint64_t t0 = wallNanos();
    obs::TimeseriesSample row;
    row.time = finished_ ? drain_seconds_ : backend_->now();
    row.mtl = policy_.currentMtl();
    row.mem_in_flight = static_cast<int>(gate_->current());
    row.tasks_done = tasksDone();
    row.pairs_done = static_cast<long>(samples_.size());
    row.ready_memory = ready_memory_->sizeApprox();
    row.ready_compute = ready_compute_->sizeApprox();
    row.selections = policy_.stats().selections;
    row.degraded = policy_.degraded();
    if (open_loop_) {
        // Jobs in system (admitted, not yet completed): the N of
        // Little's law, which is what "queue depth" means here.
        row.queue_depth = static_cast<long>(
            jobs_admitted_ - static_cast<long>(samples_.size()));
        row.backpressure = static_cast<int>(backpressure_);
    }
    obs::writeTimeseriesRow(row, *options_.timeseries_out);
    obs_sampler_ns_ += wallNanos() - t0;
}

void
Engine::refreshMtlCacheLocked()
{
    // Policies are not thread-safe, so currentMtl() is only read
    // under mutex_ and mirrored here for the lock-free admission
    // bound. The mirror is exact: the policy only changes state
    // under this same mutex, and every such call refreshes it.
    // Only this mutex writes the mirror, so an unchanged MTL needs no
    // store: every dispatcher reads this line, and a per-pair write
    // would pull it away from all of them.
    const int mtl = policy_.currentMtl();
    const int prev = mtl_cache_.load(std::memory_order_relaxed);
    if (mtl == prev)
        return;
    tt_assert(mtl <= std::numeric_limits<std::int16_t>::max(),
              "MTL ", mtl, " exceeds the pair slot's 16 bits");
    mtl_cache_.store(mtl, std::memory_order_seq_cst);
    if (mtl > prev)
        wakeWorkers(); // new headroom may unblock admission waiters
}

void
Engine::wakeWorkers()
{
    // parked_ is a fast-path hint: while every worker is busy this
    // is one relaxed-ish load and no lock at all.
    if (parked_.load(std::memory_order_seq_cst) == 0)
        return;
    {
        // Bump the generation under the lot mutex so a worker that
        // registered but has not yet slept cannot miss the wake.
        std::lock_guard lock(park_mutex_);
        ++park_gen_;
        ++wake_notifies_; // telemetry; already on the slow path
    }
    park_cv_.notify_all();
}

bool
Engine::workerShouldSleep(int worker) const
{
    const auto w = static_cast<std::size_t>(worker);
    if (run_complete_.load(std::memory_order_acquire))
        return false; // exit instead
    switch (contexts_[w].retry.load(std::memory_order_acquire)) {
      case RetryState::Due:
        return false; // our retry is due
      case RetryState::Backoff:
        return true; // reserved: only our retry timer can free us
      case RetryState::None:
        break;
    }
    if (run_failed_.load(std::memory_order_acquire))
        return true; // drain mode: nothing to dispatch, wait for end
    if (!ready_compute_->emptyApprox())
        return false;
    if (!ready_memory_->emptyApprox() &&
        gate_->current() < mtl_cache_.load(std::memory_order_seq_cst))
        return false;
    return true;
}

void
Engine::parkWorker(int worker)
{
    parked_.fetch_add(1, std::memory_order_seq_cst);
    if (!workerShouldSleep(worker)) {
        // Work appeared between our last probe and registering.
        parked_.fetch_sub(1, std::memory_order_seq_cst);
        return;
    }
    // Count the park on this worker's own metric shard.
    if (metric_shards_.has_value())
        metric_shards_->add(static_cast<std::size_t>(worker),
                            hot_ids_.worker_parks);
    {
        std::unique_lock lock(park_mutex_);
        const std::uint64_t gen = park_gen_;
        // The bounded wait is insurance, not the wake mechanism: the
        // parked_ hint can race a producer that published work before
        // seeing our registration; 2 ms bounds that tail.
        park_cv_.wait_for(lock, std::chrono::milliseconds(2), [&] {
            return park_gen_ != gen || !workerShouldSleep(worker);
        });
    }
    parked_.fetch_sub(1, std::memory_order_seq_cst);
}

bool
Engine::nextAttempt(int worker, AttemptSpec &spec)
{
    ContextSlot &slot = contexts_[static_cast<std::size_t>(worker)];
    for (;;) {
        RetryState retry = RetryState::Due;
        if (slot.retry.compare_exchange_strong(
                retry, RetryState::None, std::memory_order_acq_rel)) {
            // Our granted retry's backoff elapsed, or our memory
            // completion kept its compute partner: run the task this
            // context holds (it stayed reserved, so neither is ever
            // starved), unless the run failed meanwhile. Checked
            // before run_complete_, so no worker exits reserved: a
            // failed run can finish before a worker that dispatched
            // just before the failure completes its memory task.
            if (run_failed_.load(std::memory_order_acquire)) {
                std::lock_guard lock(mutex_);
                abandonAttemptLocked(worker);
                maybeFinishLocked();
                continue;
            }
            spec = attemptSpec(slot.running.load(std::memory_order_relaxed));
            return true;
        }
        if (run_complete_.load(std::memory_order_acquire))
            return false;
        // A worker reserved through a backoff never steals other work
        // (that would hand the retried task to the wrong context and
        // break the reservation invariant); it parks until its retry
        // fires. Only this worker moves its own state out of None,
        // so the value the failed claim read stays current.
        if (retry == RetryState::None &&
            !run_failed_.load(std::memory_order_acquire) &&
            tryDispatch(worker, spec))
            return true;
        parkWorker(worker);
    }
}

void
Engine::crashDump()
{
    // Runs on the watchdog/terminate path with workers possibly
    // wedged inside the scheduler lock: never block, report whatever
    // is reachable. The counter reads race with live workers, which
    // is acceptable for a diagnostic of a dying process.
    std::unique_lock lock(mutex_, std::try_to_lock);
    if (lock.owns_lock())
        std::fprintf(stderr,
                     "tt: runtime progress: %d/%d tasks done, "
                     "%ld memory tasks in flight\n",
                     tasksDone(), graph_.taskCount(), gate_->current());
    else
        std::fprintf(stderr,
                     "tt: runtime progress: scheduler lock held "
                     "(worker wedged mid-dispatch), %d tasks total\n",
                     graph_.taskCount());
    std::fprintf(stderr,
                 "tt: runtime trace: %d events recorded, %llu dropped; "
                 "%ld task retries\n",
                 tasksDone(),
                 static_cast<unsigned long long>(traceDropped()),
                 task_retries_.load(std::memory_order_relaxed));
}

RunResult
Engine::run(ExecutionBackend &backend)
{
    tt_assert(!started_, "Engine::run() is single-shot");
    started_ = true;

    if (graph_.empty()) {
        RunResult result;
        result.mtl_trace = policy_.mtlTrace();
        return result;
    }

    backend_ = &backend;
    const int contexts = backend.contexts();
    tt_assert(contexts >= 1 &&
                  contexts <= std::numeric_limits<std::int16_t>::max(),
              "need 1 to 32767 execution contexts, not ", contexts);
    const auto n_contexts = static_cast<std::size_t>(contexts);
    contexts_ = std::vector<ContextSlot>(n_contexts);
    const auto n_pairs = static_cast<std::size_t>(graph_.pairCount());
    ready_memory_.emplace(n_pairs);
    ready_compute_.emplace(n_pairs);
    gate_.emplace(n_contexts);
    pull_mode_ = backend.pullDispatch();
    if (options_.metrics != nullptr) {
        // Worker threads publish into shards; a single dispatcher
        // straight into the registry, in publication order.
        metric_shards_.emplace(*options_.metrics,
                               pull_mode_ ? n_contexts : 0);
        const Histogram::Options depth{
            .min_value = 1.0, .growth = 2.0, .buckets = 24};
        const Histogram::Options response{
            .min_value = 1e-6, .growth = 2.0, .buckets = 32};
        hot_ids_.ready_memory_depth =
            metric_shards_->histogram("runtime.ready_memory_depth", depth);
        hot_ids_.ready_compute_depth = metric_shards_->histogram(
            "runtime.ready_compute_depth", depth);
        hot_ids_.response_seconds =
            metric_shards_->histogram("runtime.response_seconds", response);
        hot_ids_.queue_wait_seconds = metric_shards_->histogram(
            "runtime.queue_wait_seconds", response);
        hot_ids_.worker_parks =
            metric_shards_->counter("runtime.worker_parks");
        MetricsRegistry &metrics = *options_.metrics;
        hot_ids_.jobs_admitted = metrics.counterId("runtime.jobs_admitted");
        hot_ids_.jobs_delayed = metrics.counterId("runtime.jobs_delayed");
        hot_ids_.jobs_shed = metrics.counterId("runtime.jobs_shed");
        hot_ids_.jobs_deadline_missed =
            metrics.counterId("runtime.jobs_deadline_missed");
    }
    // One entry per pair at most, so the logs never reallocate mid-run.
    terminal_pairs_.reserve(n_pairs);
    samples_.reserve(n_pairs);
    if (open_loop_) {
        job_log_.reserve(n_pairs);
        response_log_.reserve(n_pairs);
    }
    if (options_.counters != nullptr)
        pair_counters_.resize(n_pairs);

    backend.beginRun(*this);

    // Surface degraded counter providers up front: a crash dump or
    // watchdog report should already carry the gauge.
    if (options_.counters != nullptr && options_.metrics != nullptr)
        options_.metrics->set(
            "runtime.perf_unavailable",
            options_.counters->available() ? 0.0 : 1.0);

    // While the run is live, abnormal termination (tt_assert, the
    // watchdog) can flush this engine's diagnostics.
    const int hook_id = registerCrashDumpHook([this] { crashDump(); });

    {
        std::lock_guard lock(mutex_);
        refreshMtlCacheLocked(); // admission bound before workers run
        // The timers below are armed in a fixed order (health,
        // arrivals, time series, live, watchdog): simulated event ids
        // come from one counter, so the order breaks same-tick ties.
        if (options_.health.enabled) {
            // Constructed before the first arrivals so t=0 verdicts
            // land in job window 0. The model-bound fit defaults to
            // the admission service estimates when none was given.
            obs::HealthConfig hc = options_.health;
            if (hc.model_tml <= 0.0 && open_loop_) {
                hc.model_tml = options_.admission.service_tml;
                hc.model_tql = options_.admission.service_tql;
            }
            health_.emplace(hc, options_.metrics);
            armObsTick(ObsTick::Health);
        }
        if (open_loop_) {
            admission_.emplace(options_.admission, contexts);
            backpressure_ = admission_->state();
            // Arrivals replace phase activation: tasks become ready
            // as their jobs are admitted, never all at once.
            current_phase_ = 0;
            phase_remaining_ = graph_.pairCount();
            processArrivalsLocked(0.0);
            scheduleNextArrivalLocked(0.0);
        } else {
            activatePhaseLocked(0, 0.0);
        }
        if (options_.timeseries_out != nullptr) {
            emitTimeseriesRowLocked();
            armObsTick(ObsTick::Timeseries);
        }
        // Worker threads publish through shards that only a fold
        // makes visible, so they get the live tick without a sink
        // too: the watchdog's crash-dump hooks flush the registry and
        // in-process readers poll it, so it must stay at most one
        // interval behind the workers.
        if (options_.live_sink != nullptr ||
            (pull_mode_ && options_.metrics != nullptr)) {
            if (options_.live_sink != nullptr)
                options_.live_sink->snapshot(backend.now());
            armObsTick(ObsTick::Live);
        }
        if (options_.watchdog_seconds > 0.0)
            watchdog_token_ =
                backend.after(options_.watchdog_seconds,
                              [this] { onWatchdogDeadline(); });
        tryScheduleLocked();
        if (open_loop_)
            maybeFinishLocked(); // plan may shed everything at t=0
    }

    backend.drive(*this);
    unregisterCrashDumpHook(hook_id);
    return finishResult();
}

RunResult
Engine::finishResult()
{
    std::lock_guard lock(mutex_);
    // Every attempt delivered before drive() returned, so every metric
    // shard is quiescent; fold the stragglers.
    if (metric_shards_.has_value())
        metric_shards_->fold();
    const int done = tasksDone();
    RunResult result;
    result.failed = run_failed_.load(std::memory_order_relaxed);
    result.watchdog_fired = watchdog_fired_;
    result.failure_reason = failure_reason_;
    result.task_retries =
        task_retries_.load(std::memory_order_relaxed);
    result.task_failures = task_failures_;
    for (const FailedAttempt &failed : failed_attempts_)
        if (!failed.terminal)
            result.retries.push_back(
                {failed.attempt.task, failed.attempt.attempt});
    tt_assert(result.failed ||
                  done + 2 * jobs_shed_ == graph_.taskCount(),
              "run drained with ", done, " of ", graph_.taskCount(),
              " tasks done and ", jobs_shed_,
              " pairs shed (deadlock in graph or scheduler)");

    result.seconds =
        drain_seconds_ >= 0.0 ? drain_seconds_ : backend_->now();
    // The run is over: the logs move into the result, not copied.
    result.samples = std::move(samples_);
    result.policy_stats = policy_.stats();
    result.mtl_trace = policy_.mtlTrace();
    result.decisions = policy_.decisions();
    // The gate tracks the peak (monotonic CAS-max over the folded
    // shard sum at every successful admit).
    result.peak_mem_in_flight = static_cast<int>(gate_->peak());
    // The trace and the spans are views of the pair slots, built once
    // here: their build is what recording them costs the run.
    const std::uint64_t build_t0 = wallNanos();
    result.trace = buildTrace();
    result.trace_dropped = traceDropped();
    result.spans = buildSpans();
    const std::uint64_t trace_record_ns = wallNanos() - build_t0;
    result.spans_dropped = terminal_pairs_.size() - result.spans.size();
    result.pin_failures = backend_->pinFailures();

    // Corrupted samples (injected or from a glitched clock) stay in
    // result.samples for inspection but are excluded from the
    // averages -- same screen the policies apply -- so one NaN or
    // absurd outlier cannot blank the whole summary.
    core::SampleGuard summary_guard;
    double tm_sum = 0.0;
    double tc_sum = 0.0;
    long clean = 0;
    for (const auto &sample : result.samples) {
        if (!summary_guard.accept(sample))
            continue;
        tm_sum += sample.tm;
        tc_sum += sample.tc;
        ++clean;
    }
    if (clean > 0) {
        result.avg_tm = tm_sum / static_cast<double>(clean);
        result.avg_tc = tc_sum / static_cast<double>(clean);
    }
    if (!result.samples.empty()) {
        // Probe overhead counts only samples a selection accepted;
        // stale pairs (measured under a pre-probe MTL) are tracked
        // separately in policy_stats.stale_pairs.
        result.monitor_overhead =
            static_cast<double>(result.policy_stats.probe_pairs) /
            static_cast<double>(result.samples.size());
    }

    // Per-phase aggregates.
    for (const stream::Phase &phase : graph_.phases()) {
        PhaseResult pr;
        pr.name = phase.name;
        double tm = 0.0;
        double tc = 0.0;
        double start = std::numeric_limits<double>::infinity();
        double end = 0.0;
        for (int p = phase.first_pair;
             p < phase.first_pair + phase.pair_count; ++p) {
            const PairSlot &slot = pairs_[static_cast<std::size_t>(p)];
            tm += slot.end[0] - slot.start[0];
            tc += slot.end[1] - slot.start[1];
            start = std::min(start, slot.start[0]);
            end = std::max(end, slot.end[1]);
        }
        if (phase.pair_count > 0) {
            pr.tm_mean = tm / phase.pair_count;
            pr.tc_mean = tc / phase.pair_count;
            pr.start = start;
            pr.end = end;
        }
        result.phases.push_back(std::move(pr));
    }

    for (const auto &sides : pair_counters_)
        for (const std::optional<obs::perf::CounterSet> &delta : sides)
            if (delta) {
                result.has_counters = true;
                result.counters += *delta;
            }

    if (health_.has_value()) {
        result.health_enabled = true;
        result.alerts = health_->alerts();
        result.alerts_dropped = health_->alertsDropped();
        result.critical_alert_active = health_->criticalActive();
    }

    if (open_loop_) {
        result.jobs_offered =
            static_cast<long>(options_.arrival_plan->size());
        result.jobs_admitted = jobs_admitted_;
        result.jobs_delayed = jobs_delayed_;
        result.jobs_shed = jobs_shed_;
        result.jobs_deadline_missed = jobs_deadline_missed_;
        result.jobs = std::move(job_log_);
        result.response_seconds = std::move(response_log_);
        if (result.jobs_offered > 0) {
            // Shed jobs count as missed: attainment is over offered
            // load, not over what the system deigned to admit.
            result.slo_attainment =
                static_cast<double>(jobs_admitted_ -
                                    jobs_deadline_missed_) /
                static_cast<double>(result.jobs_offered);
        }
    }

    if (MetricsRegistry *metrics = options_.metrics) {
        metrics->add("runtime.tasks_done", done);
        metrics->add("runtime.pin_failed", result.pin_failures);
        metrics->add("trace.events_dropped",
                     static_cast<std::int64_t>(result.trace_dropped));
        metrics->add("obs.spans_dropped",
                     static_cast<std::int64_t>(result.spans_dropped));
        // Self-observability: what tracing/sampling cost in *wall*
        // nanoseconds. The zero-delta adds materialize the full
        // obs.overhead.* schema on every backend; the backends then
        // add their counter-read share in finalize(), the live sink
        // charges live_export_ns per snapshot, and the health engine
        // charged health_ns at drain.
        metrics->add("obs.overhead.trace_record_ns",
                     static_cast<std::int64_t>(trace_record_ns));
        metrics->add("obs.overhead.sampler_ns",
                     static_cast<std::int64_t>(obs_sampler_ns_));
        metrics->add("obs.overhead.counter_read_ns", 0);
        metrics->add("obs.overhead.live_export_ns", 0);
        metrics->add("obs.overhead.health_ns", 0);
        // Hot-path substrate telemetry. Backends without worker
        // threads never park; the zero-delta adds still materialize
        // the names so host and sim expose the identical schema.
        metrics->add("runtime.gate_admit_failures",
                     gate_->admitFailures());
        metrics->add("runtime.gate_folds", gate_->folds());
        metrics->set("runtime.ring_peak_memory",
                     static_cast<double>(ready_memory_->peakApprox()));
        metrics->set("runtime.ring_peak_compute",
                     static_cast<double>(ready_compute_->peakApprox()));
        metrics->add("runtime.worker_parks", 0); // shards added real
        metrics->add("runtime.worker_wakes",
                     static_cast<std::int64_t>(wake_notifies_));
        metrics->setMax("runtime.peak_mem_in_flight",
                        result.peak_mem_in_flight);
        metrics->set("runtime.makespan_seconds", result.seconds);
        metrics->set("runtime.monitor_overhead",
                     result.monitor_overhead);
        if (open_loop_) {
            // Zero-delta adds materialize the full jobs_* schema even
            // for runs that never delayed or shed, so host and sim
            // open-loop runs expose identical metric names.
            metrics->add(hot_ids_.jobs_admitted, 0);
            metrics->add(hot_ids_.jobs_delayed, 0);
            metrics->add(hot_ids_.jobs_shed, 0);
            metrics->add(hot_ids_.jobs_deadline_missed, 0);
            metrics->set("runtime.slo_attainment",
                         result.slo_attainment);
            metrics->set("runtime.backpressure_state",
                         static_cast<double>(backpressure_));
        }
        if (options_.counters != nullptr) {
            // Published whenever a provider is configured -- zeros
            // under the null fallback -- so host and sim runs expose
            // the identical metric-name schema either way.
            const obs::perf::CounterSet &totals = result.counters;
            metrics->add("runtime.perf.llc_misses",
                         static_cast<std::int64_t>(totals.llc_misses));
            metrics->add("runtime.perf.cycles",
                         static_cast<std::int64_t>(totals.cycles));
            metrics->add("runtime.perf.stalled_cycles",
                         static_cast<std::int64_t>(totals.stalled_cycles));
            metrics->add("runtime.perf.instructions",
                         static_cast<std::int64_t>(totals.instructions));
        }
    }

    backend_->finalize(result);
    return result;
}

std::vector<obs::TaskEvent>
Engine::buildTrace() const
{
    std::vector<obs::TaskEvent> trace;
    trace.reserve(static_cast<std::size_t>(tasksDone()));
    for (const Task &task : graph_.tasks()) {
        const auto p = static_cast<std::size_t>(task.pair);
        const std::size_t side = sideOf(task);
        const PairSlot &slot = pairs_[p];
        if (slot.worker[side] < 0)
            continue; // never completed
        obs::TaskEvent &event = trace.emplace_back();
        event.task = task.id;
        event.pair = task.pair;
        event.phase = task.phase;
        event.is_memory = task.kind == TaskKind::Memory;
        event.worker = slot.worker[side];
        event.start = slot.start[side];
        event.end = slot.end[side];
        event.mtl = slot.mtl[side];
        event.attempt = slot.attempts[side];
        if (!pair_counters_.empty() && pair_counters_[p][side]) {
            event.has_counters = true;
            event.counters = *pair_counters_[p][side];
        }
    }
    if (traceDropped() > 0) {
        // Keep each context's latest events: a context runs one
        // attempt at a time, so (end, start, task) is the order it
        // completed them in.
        std::sort(trace.begin(), trace.end(),
                  [](const obs::TaskEvent &a, const obs::TaskEvent &b) {
                      return std::tie(a.worker, b.end, b.start, b.task) <
                             std::tie(b.worker, a.end, a.start, a.task);
                  });
        const std::size_t cap = outputCap(options_.trace_capacity);
        std::vector<std::size_t> kept(contexts_.size(), 0);
        std::size_t n = 0;
        for (const obs::TaskEvent &event : trace)
            if (kept[static_cast<std::size_t>(event.worker)]++ < cap)
                trace[n++] = event;
        trace.resize(n);
    }
    // Task ids are unique, so this order is total.
    std::sort(trace.begin(), trace.end(),
              [](const obs::TaskEvent &a, const obs::TaskEvent &b) {
                  return std::tie(a.start, a.end, a.task) <
                         std::tie(b.start, b.end, b.task);
              });
    return trace;
}

std::vector<obs::JobSpan>
Engine::buildSpans() const
{
    // Each pair's failed attempts as a list of log indices, oldest
    // first. A pair's attempts run one after another along its
    // dependency chain, so the log holds them in the order they ran.
    std::vector<int> first_failure;
    std::vector<int> next_failure(failed_attempts_.size(), -1);
    if (!failed_attempts_.empty())
        first_failure.assign(pairs_.size(), -1);
    for (auto i = failed_attempts_.size(); i-- > 0;) {
        const Task &task = graph_.task(failed_attempts_[i].attempt.task);
        next_failure[i] = std::exchange(
            first_failure[static_cast<std::size_t>(task.pair)],
            static_cast<int>(i));
    }
    std::vector<const JobRecord *> job_of; // open loop: verdict by pair
    if (open_loop_) {
        job_of.assign(pairs_.size(), nullptr);
        for (const JobRecord &job : job_log_)
            job_of[static_cast<std::size_t>(job.pair)] = &job;
    }

    const auto terminal = std::span(terminal_pairs_).last(
        std::min(terminal_pairs_.size(), outputCap(options_.span_capacity)));
    std::vector<obs::JobSpan> spans(terminal.size());
    for (std::size_t k = 0; k < terminal.size(); ++k) {
        const stream::PairId pair = terminal[k];
        const auto p = static_cast<std::size_t>(pair);
        const PairSlot &slot = pairs_[p];
        obs::JobSpan &span = spans[k];
        span.pair = pair;
        span.open_loop = open_loop_;
        span.arrival = job_arrival_stamp_[p];
        span.end = slot.end[1];
        span.outcome = slot.deadline_missed ? obs::SpanOutcome::DeadlineMiss
                                            : obs::SpanOutcome::Completed;
        if (open_loop_) {
            const JobRecord &job = *job_of[p];
            span.priority = job.priority;
            span.decision = job.decision;
            if (job.decision == load::AdmissionDecision::Shed) {
                // Terminal at the verdict: no attempts, zero response.
                span.shed_reason = job.shed_reason;
                span.end = span.arrival;
                span.outcome = obs::SpanOutcome::Shed;
            }
        }
        // Memory side, then compute: each side's failed attempts, then
        // its successful one, up to a terminal failure. Two attempts
        // unless the pair failed some: one allocation per span.
        if (span.outcome != obs::SpanOutcome::Shed)
            span.attempts.reserve(2);
        for (std::size_t side = 0;
             side < 2 && span.outcome != obs::SpanOutcome::Shed; ++side) {
            const bool memory = side == 0; // see PairSlot
            for (int i = first_failure.empty() ? -1 : first_failure[p];
                 i >= 0; i = next_failure[static_cast<std::size_t>(i)]) {
                const FailedAttempt &failed =
                    failed_attempts_[static_cast<std::size_t>(i)];
                if (failed.attempt.is_memory != memory)
                    continue;
                span.attempts.push_back(failed.attempt);
                if (failed.terminal) {
                    span.end = failed.attempt.end;
                    span.outcome = obs::SpanOutcome::Failed;
                }
            }
            if (span.outcome == obs::SpanOutcome::Failed)
                break;
            obs::SpanAttempt &ok = span.attempts.emplace_back();
            ok.task = memory ? graph_.memoryTaskOf(pair)
                             : graph_.computeTaskOf(pair);
            ok.is_memory = memory;
            ok.attempt = slot.attempts[side];
            ok.worker = slot.worker[side];
            ok.start = slot.start[side];
            ok.end = slot.end[side];
            if (!pair_counters_.empty() && pair_counters_[p][side]) {
                ok.has_counters = true;
                ok.counters = *pair_counters_[p][side];
            }
        }
        span.critical_path = obs::computeCriticalPath(span);
    }
    return spans;
}

obs::TraceData
toTraceData(const stream::TaskGraph &graph, const RunResult &result)
{
    obs::TraceData data;
    data.events = result.trace;
    data.mtl_trace = result.mtl_trace;
    data.decisions = result.decisions;
    data.spans = result.spans;
    data.alerts = result.alerts;
    data.alerts_dropped = result.alerts_dropped;
    data.health_enabled = result.health_enabled;
    data.phase_names.reserve(
        static_cast<std::size_t>(graph.phaseCount()));
    for (const stream::Phase &phase : graph.phases())
        data.phase_names.push_back(phase.name);
    return data;
}

namespace {

std::string
violation(const char *what, stream::TaskId id)
{
    return std::string(what) + " (task " + std::to_string(id) + ")";
}

} // namespace

std::string
validateSchedule(const stream::TaskGraph &graph, const RunResult &result,
                 int contexts)
{
    const auto n_tasks = static_cast<std::size_t>(graph.taskCount());
    if (result.trace.size() != n_tasks)
        return "trace has " + std::to_string(result.trace.size()) +
               " entries for " + std::to_string(graph.taskCount()) +
               " tasks";

    std::vector<int> runs(n_tasks, 0);
    for (const obs::TaskEvent &entry : result.trace) {
        if (entry.task < 0 || entry.task >= graph.taskCount())
            return violation("trace entry with bad task id", entry.task);
        ++runs[static_cast<std::size_t>(entry.task)];
        if (entry.end < entry.start)
            return violation("task ends before it starts", entry.task);
        if (entry.worker < 0 || entry.worker >= contexts)
            return violation("task ran on a bad context", entry.task);
    }
    for (std::size_t id = 0; id < n_tasks; ++id)
        if (runs[id] != 1)
            return violation("task did not run exactly once",
                             static_cast<stream::TaskId>(id));

    // Index trace entries by task for dependency checks.
    std::vector<const obs::TaskEvent *> by_task(n_tasks, nullptr);
    for (const obs::TaskEvent &entry : result.trace)
        by_task[static_cast<std::size_t>(entry.task)] = &entry;

    // No overlap per execution context.
    std::vector<std::vector<const obs::TaskEvent *>> per_context(
        static_cast<std::size_t>(contexts));
    for (const obs::TaskEvent &entry : result.trace)
        per_context[static_cast<std::size_t>(entry.worker)].push_back(
            &entry);
    for (auto &entries : per_context) {
        std::sort(entries.begin(), entries.end(),
                  [](const obs::TaskEvent *a, const obs::TaskEvent *b) {
                      return a->start < b->start;
                  });
        for (std::size_t i = 1; i < entries.size(); ++i) {
            if (entries[i]->start < entries[i - 1]->end - 1e-12)
                return violation("two tasks overlap on one context",
                                 entries[i]->task);
        }
    }

    // MTL respected at every memory-task start instant.
    for (const obs::TaskEvent &entry : result.trace) {
        if (!entry.is_memory)
            continue;
        int concurrent = 0;
        for (const obs::TaskEvent &other : result.trace) {
            if (!other.is_memory)
                continue;
            if (other.start <= entry.start + 1e-15 &&
                entry.start < other.end - 1e-15) {
                ++concurrent;
            }
            // A zero-length memory task that dispatched exactly at
            // this instant still occupied a slot; count it when it
            // is the task under test itself.
        }
        if (concurrent == 0)
            concurrent = 1; // entry itself had zero length
        if (concurrent > entry.mtl)
            return violation("MTL exceeded at dispatch", entry.task);
    }

    // Dependencies.
    for (const stream::Task &task : graph.tasks()) {
        const obs::TaskEvent *entry =
            by_task[static_cast<std::size_t>(task.id)];
        for (stream::TaskId dep : task.deps) {
            const obs::TaskEvent *dep_entry =
                by_task[static_cast<std::size_t>(dep)];
            if (entry->start < dep_entry->end - 1e-12)
                return violation("task started before its dependency",
                                 task.id);
        }
    }
    // Phase barrier: min start of phase p+1 >= max end of phase p.
    std::vector<double> phase_min_start(
        static_cast<std::size_t>(graph.phaseCount()), 1e300);
    std::vector<double> phase_max_end(
        static_cast<std::size_t>(graph.phaseCount()), 0.0);
    for (const obs::TaskEvent &entry : result.trace) {
        auto &min_start =
            phase_min_start[static_cast<std::size_t>(entry.phase)];
        auto &max_end =
            phase_max_end[static_cast<std::size_t>(entry.phase)];
        min_start = std::min(min_start, entry.start);
        max_end = std::max(max_end, entry.end);
    }
    for (int p = 1; p < graph.phaseCount(); ++p) {
        if (phase_min_start[static_cast<std::size_t>(p)] <
            phase_max_end[static_cast<std::size_t>(p - 1)] - 1e-12) {
            return "phase " + std::to_string(p) +
                   " started before phase " + std::to_string(p - 1) +
                   " completed";
        }
    }

    return {};
}

} // namespace tt::exec
