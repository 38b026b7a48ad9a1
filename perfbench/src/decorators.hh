/**
 * @file
 * Timing decorators for the program's two extension interfaces,
 * core::SchedulingPolicy and exec::ExecutionBackend. Each forwards
 * every virtual to the wrapped object and records a span (see
 * span_log.hh) around the calls worth timing. currentMtl(), cheap and
 * very frequent, and the timer calls are also counted.
 *
 * The engine reads mtlTrace() and decisions() from the policy it was
 * given, and those are non-virtual on the base class, so a decorated
 * run's RunResult carries the decorator's empty logs. Call
 * TimedPolicy::restoreLogs() on the result to copy the wrapped
 * policy's logs in before the result is checked.
 */

#ifndef PERFBENCH_DECORATORS_HH
#define PERFBENCH_DECORATORS_HH

#include <atomic>
#include <cstdlib>
#include <cstdint>
#include <string>
#include <utility>

#include "core/policy.hh"
#include "exec/engine.hh"
#include "span_log.hh"

namespace pb {

class TimedPolicy final : public tt::core::SchedulingPolicy
{
  public:
    explicit TimedPolicy(tt::core::SchedulingPolicy &inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }

    int
    currentMtl() const override
    {
        current_mtl_calls_.fetch_add(1, std::memory_order_relaxed);
        return inner_.currentMtl();
    }

    void
    onPairMeasured(const tt::core::PairSample &sample) override
    {
        ScopedSpan span(kSpanOnPair);
        inner_.onPairMeasured(sample);
    }

    tt::core::PolicyStats stats() const override { return inner_.stats(); }
    bool degraded() const override { return inner_.degraded(); }

    void
    onBackpressure(double time, tt::core::BackpressureState state,
                   long backlog) override
    {
        ScopedSpan span(kSpanOnBackpressure);
        inner_.onBackpressure(time, state, backlog);
    }

    /** Copy the wrapped policy's MTL trace and audit log into `r`. */
    void
    restoreLogs(tt::exec::RunResult &r) const
    {
        r.mtl_trace = inner_.mtlTrace();
        r.decisions = inner_.decisions();
    }

    std::uint64_t
    currentMtlCalls() const
    {
        return current_mtl_calls_.load(std::memory_order_relaxed);
    }

  private:
    tt::core::SchedulingPolicy &inner_;
    mutable std::atomic<std::uint64_t> current_mtl_calls_{0};
};

class TimedBackend final : public tt::exec::ExecutionBackend
{
  public:
    explicit TimedBackend(tt::exec::ExecutionBackend &inner) : inner_(inner) {}

    int contexts() const override { return inner_.contexts(); }
    double now() const override { return inner_.now(); }

    void
    beginRun(tt::exec::Engine &engine) override
    {
        ScopedSpan span(kSpanBeginRun);
        ExecutionBackend::beginRun(engine);
        inner_.beginRun(engine);
    }

    void
    startAttempt(int context, const tt::exec::AttemptSpec &spec) override
    {
        ScopedSpan span(kSpanStartAttempt);
        inner_.startAttempt(context, spec);
    }

    TimerToken
    after(double seconds, std::function<void()> fn) override
    {
        timer_calls_.fetch_add(1, std::memory_order_relaxed);
        ScopedSpan span(kSpanAfter);
        return inner_.after(seconds, [fn = std::move(fn)] {
            ScopedSpan fire(kSpanTimerFire);
            fn();
        });
    }

    void
    cancel(TimerToken token) override
    {
        timer_calls_.fetch_add(1, std::memory_order_relaxed);
        ScopedSpan span(kSpanCancel);
        inner_.cancel(token);
    }

    void
    drive(tt::exec::Engine &engine) override
    {
        drive_begin_ = inner_.now();
        {
            ScopedSpan span(kSpanDrive);
            inner_.drive(engine);
        }
        drive_end_ = inner_.now();
    }

    void
    runDrained() override
    {
        ScopedSpan span(kSpanRunDrained);
        inner_.runDrained();
    }

    bool pullDispatch() const override { return inner_.pullDispatch(); }

    void
    pairCompleted(const tt::stream::Task &memory_task) override
    {
        ScopedSpan span(kSpanPairCompleted);
        inner_.pairCompleted(memory_task);
    }

    long pinFailures() const override { return inner_.pinFailures(); }

    bool
    watchdogTerminatesProcess() const override
    {
        return inner_.watchdogTerminatesProcess();
    }

    [[noreturn]] void
    terminateProcess(int exit_code) override
    {
        inner_.terminateProcess(exit_code);
        std::abort(); // not reached: the wrapped backend exits
    }

    void
    finalize(tt::exec::RunResult &result) override
    {
        ScopedSpan span(kSpanFinalize);
        inner_.finalize(result);
    }

    /** after() + cancel() calls so far. */
    std::uint64_t
    timerCalls() const
    {
        return timer_calls_.load(std::memory_order_relaxed);
    }

    /** Engine-clock seconds at which drive() was entered and left. */
    double driveBegin() const { return drive_begin_; }
    double driveEnd() const { return drive_end_; }

  private:
    tt::exec::ExecutionBackend &inner_;
    std::atomic<std::uint64_t> timer_calls_{0};
    double drive_begin_ = 0.0;
    double drive_end_ = 0.0;
};

} // namespace pb

#endif // PERFBENCH_DECORATORS_HH
