/**
 * @file
 * Unit tests of the backend-agnostic scheduling engine, driven by a
 * deterministic MockBackend on virtual time: dispatch discipline,
 * pair-granularity retries and exponential backoff, fault
 * realization, degraded policies, the in-band watchdog, time-series
 * sampling and trace bounds -- all without threads or the simulator,
 * so every assertion can be exact.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dynamic_policy.hh"
#include "core/policy.hh"
#include "exec/engine.hh"
#include "fault/fault_plan.hh"
#include "stream/builder.hh"
#include "util/stats.hh"
#include "util/json.hh"

namespace {

using tt::exec::AttemptOutcome;
using tt::exec::AttemptSpec;
using tt::exec::Engine;
using tt::exec::EngineOptions;
using tt::stream::PairSpec;
using tt::stream::StreamProgramBuilder;
using tt::stream::TaskGraph;
using tt::stream::TaskKind;

/**
 * Deterministic virtual-time backend. Attempts complete after fixed
 * per-kind durations on a single event loop; the engine's fault
 * decisions are honoured the way a real backend would (fail, stall,
 * straggle, re-run the pair's memory body before a compute retry).
 * The clock is exact, so tests can assert on the schedule down to
 * the backoff arithmetic.
 */
class MockBackend final : public tt::exec::ExecutionBackend
{
  public:
    MockBackend(const TaskGraph &graph, int contexts)
        : graph_(graph), contexts_(contexts)
    {
    }

    double mem_seconds = 1e-3;
    double comp_seconds = 2e-3;

    /** Extra failures beyond the engine's fault plan (per spec). */
    std::function<bool(const AttemptSpec &)> inject_fail;

    /** Every spec the engine handed us, in dispatch order. */
    std::vector<AttemptSpec> specs;

    int contexts() const override { return contexts_; }
    double now() const override { return now_; }

    void
    startAttempt(int context, const AttemptSpec &spec) override
    {
        specs.push_back(spec);
        const auto &task = graph_.task(spec.task);
        const double base = task.kind == TaskKind::Memory
                                ? mem_seconds
                                : comp_seconds;
        const double lead =
            spec.rerun_memory_first ? mem_seconds : 0.0;
        double duration = base;
        if (spec.faults.stall)
            duration += spec.stall_seconds;
        if (spec.faults.latency_factor > 1.0)
            duration *= spec.faults.latency_factor;

        AttemptOutcome out;
        out.start = now_ + lead;
        out.end = out.start + duration;
        if (spec.faults.fail ||
            (inject_fail && inject_fail(spec))) {
            out.failed = true;
            out.error =
                tt::fault::InjectedFault(spec.task, spec.attempt)
                    .what();
        }
        schedule(out.end - now_, [this, context, out] {
            engine_->onAttemptDone(context, out);
        });
    }

    TimerToken
    after(double seconds, std::function<void()> fn) override
    {
        return schedule(seconds, std::move(fn)) + 1;
    }

    void
    cancel(TimerToken token) override
    {
        if (token == 0)
            return;
        for (auto &event : events_)
            if (event.seq == token - 1)
                event.dead = true;
    }

    void
    drive(Engine &engine) override
    {
        (void)engine;
        for (;;) {
            std::size_t best = events_.size();
            for (std::size_t i = 0; i < events_.size(); ++i) {
                if (events_[i].dead)
                    continue;
                if (best == events_.size() ||
                    events_[i].at < events_[best].at ||
                    (events_[i].at == events_[best].at &&
                     events_[i].seq < events_[best].seq))
                    best = i;
            }
            if (best == events_.size())
                return;
            events_[best].dead = true;
            now_ = events_[best].at;
            auto fn = std::move(events_[best].fn);
            fn();
        }
    }

  private:
    struct Event
    {
        double at = 0.0;
        std::uint64_t seq = 0;
        std::function<void()> fn;
        bool dead = false;
    };

    std::uint64_t
    schedule(double seconds, std::function<void()> fn)
    {
        const std::uint64_t seq = next_seq_++;
        events_.push_back(Event{now_ + seconds, seq, std::move(fn),
                                false});
        return seq;
    }

    const TaskGraph &graph_;
    int contexts_ = 1;
    double now_ = 0.0;
    std::vector<Event> events_;
    std::uint64_t next_seq_ = 0;
};

TaskGraph
pairsGraph(int pairs, int phases = 1)
{
    StreamProgramBuilder builder;
    for (int p = 0; p < phases; ++p) {
        builder.beginPhase("phase" + std::to_string(p));
        builder.addPairs(pairs, [](int) {
            PairSpec spec;
            spec.bytes = 64 * 1024;
            spec.compute_cycles = 1000;
            return spec;
        });
    }
    return std::move(builder).build();
}

TEST(EngineMock, MtlGateHoldsAndScheduleValidates)
{
    const TaskGraph graph = pairsGraph(8);
    tt::core::StaticMtlPolicy policy(1, 3);
    EngineOptions options;
    MockBackend backend(graph, 3);
    Engine engine(graph, policy, options);
    const auto result = engine.run(backend);

    EXPECT_FALSE(result.failed);
    EXPECT_EQ(result.samples.size(), 8u);
    EXPECT_EQ(result.peak_mem_in_flight, 1);
    EXPECT_EQ(result.trace.size(), 16u);
    EXPECT_EQ(tt::exec::validateSchedule(graph, result, 3), "");
}

/**
 * Exact makespan of a tiny schedule: MTL=1 admits memory tasks one
 * at a time, compute dispatches as soon as its pair's data landed,
 * and an idle context prefers compute over admissible memory.
 *
 *   t=0   ctx0: mem0            (mem1 blocked by the gate)
 *   t=1ms ctx0: cmp0, ctx1: mem1
 *   t=2ms ctx1 idle -> cmp1
 *   t=4ms cmp1 ends: makespan
 */
TEST(EngineMock, ComputeFirstDispatchProducesExactMakespan)
{
    const TaskGraph graph = pairsGraph(2);
    tt::core::StaticMtlPolicy policy(1, 2);
    EngineOptions options;
    MockBackend backend(graph, 2);
    Engine engine(graph, policy, options);
    const auto result = engine.run(backend);

    EXPECT_FALSE(result.failed);
    EXPECT_NEAR(result.seconds, 4e-3, 1e-12);
    EXPECT_EQ(tt::exec::validateSchedule(graph, result, 2), "");
}

TEST(EngineMock, PhaseBarriersSeparatePhases)
{
    const TaskGraph graph = pairsGraph(4, /*phases=*/3);
    tt::core::ConventionalPolicy policy(2);
    EngineOptions options;
    MockBackend backend(graph, 2);
    Engine engine(graph, policy, options);
    const auto result = engine.run(backend);

    EXPECT_FALSE(result.failed);
    ASSERT_EQ(result.phases.size(), 3u);
    for (std::size_t i = 1; i < result.phases.size(); ++i)
        EXPECT_GE(result.phases[i].start, result.phases[i - 1].end);
    EXPECT_EQ(tt::exec::validateSchedule(graph, result, 2), "");
}

/**
 * A task failing every attempt exhausts its retries on the exact
 * exponential-backoff schedule:
 *
 *   [0,1ms] attempt 0 fails, backoff 1ms
 *   [2,3ms] attempt 1 fails, backoff 2ms
 *   [5,6ms] attempt 2 fails -> run failed at t=6ms
 */
TEST(EngineMock, RetryBackoffIsExponentialAndExhaustionFailsRun)
{
    const TaskGraph graph = pairsGraph(1);
    tt::core::StaticMtlPolicy policy(1, 1);
    tt::fault::FaultConfig config;
    config.seed = 11;
    config.fail_p = 1.0;
    const tt::fault::FaultPlan plan(config);

    EngineOptions options;
    options.fault_plan = &plan;
    options.max_task_retries = 2;
    options.retry_backoff_seconds = 1e-3;
    MockBackend backend(graph, 1);
    Engine engine(graph, policy, options);
    const auto result = engine.run(backend);

    EXPECT_TRUE(result.failed);
    EXPECT_FALSE(result.watchdog_fired);
    EXPECT_EQ(result.task_retries, 2);
    EXPECT_EQ(result.task_failures, 1);
    ASSERT_EQ(result.retries.size(), 2u);
    EXPECT_EQ(result.retries[0].attempt, 0);
    EXPECT_EQ(result.retries[1].attempt, 1);
    EXPECT_EQ(result.retries[0].task, result.retries[1].task);
    EXPECT_NE(result.failure_reason.find("failed after 2 retries"),
              std::string::npos);
    EXPECT_NE(result.failure_reason.find("injected fault"),
              std::string::npos);
    EXPECT_NEAR(result.seconds, 6e-3, 1e-12);
}

TEST(EngineMock, ComputeRetryRerunsThePairsMemoryBodyFirst)
{
    const TaskGraph graph = pairsGraph(4);
    tt::core::StaticMtlPolicy policy(2, 2);
    EngineOptions options;
    options.retry_backoff_seconds = 1e-4;
    MockBackend backend(graph, 2);
    // Fail the first attempt of every *compute* task.
    backend.inject_fail = [&graph](const AttemptSpec &spec) {
        return graph.task(spec.task).kind == TaskKind::Compute &&
               spec.attempt == 0;
    };
    Engine engine(graph, policy, options);
    const auto result = engine.run(backend);

    EXPECT_FALSE(result.failed);
    EXPECT_EQ(result.samples.size(), 4u);
    EXPECT_EQ(result.task_retries, 4);

    int rerun_retries = 0;
    for (const auto &spec : backend.specs) {
        if (spec.attempt == 0) {
            EXPECT_FALSE(spec.rerun_memory_first);
            continue;
        }
        EXPECT_EQ(graph.task(spec.task).kind, TaskKind::Compute);
        EXPECT_TRUE(spec.rerun_memory_first);
        ++rerun_retries;
    }
    EXPECT_EQ(rerun_retries, 4);
    EXPECT_EQ(tt::exec::validateSchedule(graph, result, 2), "");
}

TEST(EngineMock, WholesaleCorruptionDegradesThePolicy)
{
    const TaskGraph graph = pairsGraph(64);
    tt::core::DynamicThrottlePolicy policy(2, 8);
    tt::fault::FaultConfig config;
    config.seed = 5;
    config.corrupt_p = 1.0;
    const tt::fault::FaultPlan plan(config);

    EngineOptions options;
    options.fault_plan = &plan;
    MockBackend backend(graph, 2);
    Engine engine(graph, policy, options);
    const auto result = engine.run(backend);

    EXPECT_FALSE(result.failed);
    EXPECT_EQ(result.samples.size(), 64u);
    EXPECT_TRUE(policy.degraded());
    EXPECT_GT(result.policy_stats.samples_rejected, 0);
    const bool any_degraded_decision = std::any_of(
        result.decisions.begin(), result.decisions.end(),
        [](const tt::core::MtlDecision &d) { return d.degraded; });
    EXPECT_TRUE(any_degraded_decision);
}

TEST(EngineMock, WatchdogFailsTheRunInBandOnTheVirtualClock)
{
    const TaskGraph graph = pairsGraph(16);
    tt::core::StaticMtlPolicy policy(1, 1);
    tt::MetricsRegistry metrics;
    EngineOptions options;
    options.metrics = &metrics;
    options.watchdog_seconds = 5e-3;
    MockBackend backend(graph, 1);
    Engine engine(graph, policy, options);
    const auto result = engine.run(backend);

    EXPECT_TRUE(result.failed);
    EXPECT_TRUE(result.watchdog_fired);
    EXPECT_NE(result.failure_reason.find("watchdog"),
              std::string::npos);
    // The deadline fired mid-run: not every pair completed, and the
    // clock stopped at (or just past) the deadline.
    EXPECT_LT(result.samples.size(), 16u);
    EXPECT_GE(result.seconds, 5e-3);
    const auto counters = metrics.counterNames();
    EXPECT_NE(std::find(counters.begin(), counters.end(),
                        "runtime.watchdog_fired"),
              counters.end());
}

TEST(EngineMock, TimeseriesRowsCoverTheRunAndEndAtDrain)
{
    const TaskGraph graph = pairsGraph(8);
    tt::core::StaticMtlPolicy policy(1, 1);
    std::ostringstream rows;
    EngineOptions options;
    options.timeseries_out = &rows;
    options.timeseries_interval_seconds = 1e-3;
    MockBackend backend(graph, 1);
    Engine engine(graph, policy, options);
    const auto result = engine.run(backend);

    EXPECT_FALSE(result.failed);
    std::istringstream in(rows.str());
    std::string line;
    std::size_t count = 0;
    double last_t = -1.0;
    double last_tasks = -1.0;
    while (std::getline(in, line)) {
        const auto row = tt::json::parse(line);
        ASSERT_TRUE(row.has_value()) << line;
        EXPECT_GE(row->numberAt("t"), last_t);
        last_t = row->numberAt("t");
        last_tasks = row->numberAt("tasks_done");
        ++count;
    }
    EXPECT_GE(count, 5u);
    // The final row is emitted at drain and stamped with it.
    EXPECT_DOUBLE_EQ(last_t, result.seconds);
    EXPECT_EQ(static_cast<int>(last_tasks), graph.taskCount());
}

TEST(EngineMock, EmptyGraphDrainsImmediately)
{
    const TaskGraph graph;
    tt::core::StaticMtlPolicy policy(1, 1);
    EngineOptions options;
    MockBackend backend(graph, 1);
    Engine engine(graph, policy, options);
    const auto result = engine.run(backend);

    EXPECT_FALSE(result.failed);
    EXPECT_EQ(result.seconds, 0.0);
    EXPECT_TRUE(result.trace.empty());
    EXPECT_TRUE(result.samples.empty());
    // The policy's initial MTL is still reported.
    ASSERT_FALSE(result.mtl_trace.empty());
    EXPECT_EQ(result.mtl_trace.front().second, 1);
}

/**
 * A capped trace is the uncapped trace of the same run less each
 * context's earliest events: a context keeps its latest k, by end
 * time, and the rest count as dropped.
 */
TEST(EngineMock, TraceCapacityBoundsMemoryAndCountsDrops)
{
    const TaskGraph graph = pairsGraph(16);
    const auto run = [&graph](std::size_t capacity) {
        tt::core::StaticMtlPolicy policy(2, 2);
        EngineOptions options;
        options.trace_capacity = capacity;
        MockBackend backend(graph, 2);
        Engine engine(graph, policy, options);
        return engine.run(backend);
    };
    constexpr std::size_t k = 2;
    const auto full = run(EngineOptions{}.trace_capacity);
    const auto capped = run(k);
    ASSERT_FALSE(full.failed);
    ASSERT_FALSE(capped.failed);
    EXPECT_EQ(capped.samples.size(), 16u); // scheduling unaffected
    ASSERT_EQ(full.trace.size(),
              static_cast<std::size_t>(graph.taskCount()));
    EXPECT_EQ(full.trace_dropped, 0u);

    // Each context's events, latest first by (end, start, task).
    std::vector<std::vector<const tt::obs::TaskEvent *>> latest(2);
    for (const tt::obs::TaskEvent &event : full.trace)
        latest[static_cast<std::size_t>(event.worker)].push_back(&event);
    std::vector<bool> kept(full.trace.size(), true);
    std::uint64_t dropped = 0;
    for (auto &events : latest) {
        std::sort(events.begin(), events.end(),
                  [](const tt::obs::TaskEvent *a,
                     const tt::obs::TaskEvent *b) {
                      if (a->end != b->end)
                          return a->end > b->end;
                      if (a->start != b->start)
                          return a->start > b->start;
                      return a->task > b->task;
                  });
        for (std::size_t i = k; i < events.size(); ++i) {
            kept[static_cast<std::size_t>(events[i] - full.trace.data())] =
                false;
            ++dropped;
        }
    }
    std::vector<tt::obs::TaskEvent> want;
    for (std::size_t i = 0; i < full.trace.size(); ++i)
        if (kept[i])
            want.push_back(full.trace[i]);

    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(capped.trace_dropped, dropped);
    ASSERT_EQ(capped.trace.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const tt::obs::TaskEvent &got = capped.trace[i];
        const tt::obs::TaskEvent &exp = want[i];
        EXPECT_TRUE(got.task == exp.task && got.pair == exp.pair &&
                    got.phase == exp.phase &&
                    got.is_memory == exp.is_memory &&
                    got.worker == exp.worker && got.start == exp.start &&
                    got.end == exp.end && got.mtl == exp.mtl &&
                    got.attempt == exp.attempt &&
                    got.has_counters == exp.has_counters &&
                    got.counters == exp.counters)
            << "event " << i << ": task " << got.task << " vs "
            << exp.task;
    }
}

/**
 * Pull-mode backend whose worker threads are a test script on the
 * driving thread: it calls nextAttempt() and onAttemptDone() for
 * each context in an exact order, so interleavings that real workers
 * only hit by chance run every time. A script must not ask for work
 * when none is runnable (nextAttempt would park for good).
 */
class ScriptedPullBackend final : public tt::exec::ExecutionBackend
{
  public:
    explicit ScriptedPullBackend(int contexts) : contexts_(contexts) {}

    /** Plays the workers; runs as drive(). */
    std::function<void(Engine &)> script;
    /** Set when the engine reported the run drained. */
    bool drained = false;

    int contexts() const override { return contexts_; }
    double now() const override { return 0.0; }
    bool pullDispatch() const override { return true; }

    void
    startAttempt(int context, const AttemptSpec &spec) override
    {
        ADD_FAILURE() << "pushed task " << spec.task << " to context "
                      << context << " of a pull backend";
    }

    TimerToken
    after(double seconds, std::function<void()> fn) override
    {
        (void)seconds;
        (void)fn;
        return ++timers_;
    }

    void cancel(TimerToken token) override { (void)token; }
    void drive(Engine &engine) override { script(engine); }
    void runDrained() override { drained = true; }

  private:
    int contexts_ = 1;
    TimerToken timers_ = 0;
};

AttemptOutcome
succeeded()
{
    AttemptOutcome out;
    out.end = 1e-3;
    return out;
}

/**
 * A memory completion keeps its own compute partner on its context:
 * with both memory tasks done and both computes ready, each context
 * runs its own pair's compute task, where a shared ring would hand
 * context 1 the older compute task 0.
 */
TEST(EnginePull, KeptPartnerRunsOnItsMemoryTasksContext)
{
    const TaskGraph graph = pairsGraph(2);
    tt::core::ConventionalPolicy policy(2);
    EngineOptions options;
    ScriptedPullBackend backend(2);
    backend.script = [&](Engine &engine) {
        AttemptSpec spec;
        for (int c = 0; c < 2; ++c) {
            ASSERT_TRUE(engine.nextAttempt(c, spec));
            EXPECT_EQ(spec.task, graph.memoryTaskOf(c));
        }
        engine.onAttemptDone(0, succeeded());
        engine.onAttemptDone(1, succeeded());
        for (int c : {1, 0}) {
            ASSERT_TRUE(engine.nextAttempt(c, spec));
            EXPECT_EQ(spec.task, graph.computeTaskOf(c)) << "context " << c;
            engine.onAttemptDone(c, succeeded());
        }
        EXPECT_FALSE(engine.nextAttempt(0, spec));
        EXPECT_FALSE(engine.nextAttempt(1, spec));
    };
    Engine engine(graph, policy, options);
    const auto result = engine.run(backend);
    EXPECT_FALSE(result.failed) << result.failure_reason;
    EXPECT_EQ(result.samples.size(), 2u);
    EXPECT_TRUE(backend.drained);
}

/**
 * The reservation passes from a memory task to its kept partner with
 * no idle moment: a run that fails while the partner waits must not
 * finish until the context's worker has abandoned it, and the worker
 * must abandon it rather than run it.
 */
TEST(EnginePull, KeptPartnerHoldsItsContextThroughAFailedRun)
{
    const TaskGraph graph = pairsGraph(2);
    tt::core::ConventionalPolicy policy(2);
    EngineOptions options;
    options.max_task_retries = 0;
    ScriptedPullBackend backend(2);
    bool drained_at_failure = true;
    backend.script = [&](Engine &engine) {
        AttemptSpec spec;
        ASSERT_TRUE(engine.nextAttempt(0, spec));
        ASSERT_TRUE(engine.nextAttempt(1, spec));
        engine.onAttemptDone(0, succeeded()); // keeps compute task 0
        AttemptOutcome failed = succeeded();
        failed.failed = true;
        failed.error = "injected";
        engine.onAttemptDone(1, failed); // no retries: the run fails
        drained_at_failure = backend.drained;
        EXPECT_FALSE(engine.nextAttempt(0, spec))
            << "ran task " << spec.task << " in a failed run";
    };
    Engine engine(graph, policy, options);
    const auto result = engine.run(backend);
    EXPECT_FALSE(drained_at_failure)
        << "the run finished while context 0 held its kept partner";
    EXPECT_TRUE(backend.drained);
    EXPECT_TRUE(result.failed);
    ASSERT_EQ(result.trace.size(), 1u);
    EXPECT_EQ(result.trace[0].task, graph.memoryTaskOf(0));
    EXPECT_TRUE(result.samples.empty());
    ASSERT_EQ(result.spans.size(), 1u);
    EXPECT_EQ(result.spans[0].pair, 1);
    EXPECT_EQ(result.spans[0].outcome, tt::obs::SpanOutcome::Failed);
}

} // namespace
