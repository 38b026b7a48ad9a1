/**
 * @file
 * A zero-cost, virtual-time execution backend: every attempt of a
 * memory task takes `tm` seconds and every compute attempt `tc`
 * seconds of virtual time, with no simulation behind it. Running an
 * exec::Engine over it (push mode, single thread) measures the
 * engine's own host cost per attempt for a graph of the workload's
 * shape.
 */

#ifndef PERFBENCH_VIRTUAL_BACKEND_HH
#define PERFBENCH_VIRTUAL_BACKEND_HH

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <tuple>
#include <vector>

#include "exec/engine.hh"
#include "stream/task_graph.hh"

namespace pb {

class VirtualBackend final : public tt::exec::ExecutionBackend
{
  public:
    VirtualBackend(const tt::stream::TaskGraph &graph, int contexts,
                   double tm, double tc)
        : graph_(graph), contexts_(contexts), tm_(tm), tc_(tc)
    {
    }

    int contexts() const override { return contexts_; }
    double now() const override { return now_; }

    void
    startAttempt(int context, const tt::exec::AttemptSpec &spec) override
    {
        const bool memory =
            graph_.task(spec.task).kind == tt::stream::TaskKind::Memory;
        push(now_ + (memory ? tm_ : tc_), context, 0, now_);
    }

    TimerToken
    after(double seconds, std::function<void()> fn) override
    {
        const TimerToken token = next_token_++;
        timers_.emplace(token, std::move(fn));
        push(now_ + seconds, -1, token, 0.0);
        return token;
    }

    void cancel(TimerToken token) override { timers_.erase(token); }

    void
    drive(tt::exec::Engine &engine) override
    {
        while (!drained_ && !pending_.empty()) {
            const Entry entry = pending_.top();
            pending_.pop();
            now_ = std::get<0>(entry);
            const int context = std::get<2>(entry);
            if (context >= 0) {
                tt::exec::AttemptOutcome outcome;
                outcome.start = std::get<4>(entry);
                outcome.end = now_;
                engine.onAttemptDone(context, outcome);
                continue;
            }
            auto timer = timers_.find(std::get<3>(entry));
            if (timer == timers_.end())
                continue; // cancelled
            std::function<void()> fn = std::move(timer->second);
            timers_.erase(timer);
            fn();
        }
    }

    void runDrained() override { drained_ = true; }

  private:
    /** (time, sequence, context or -1 for a timer, token, start). */
    using Entry = std::tuple<double, std::uint64_t, int, TimerToken, double>;

    void
    push(double when, int context, TimerToken token, double start)
    {
        pending_.emplace(when, seq_++, context, token, start);
    }

    const tt::stream::TaskGraph &graph_;
    int contexts_;
    double tm_;
    double tc_;
    double now_ = 0.0;
    bool drained_ = false;
    std::uint64_t seq_ = 0;
    TimerToken next_token_ = 1;
    std::map<TimerToken, std::function<void()>> timers_;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        pending_;
};

} // namespace pb

#endif // PERFBENCH_VIRTUAL_BACKEND_HH
