/**
 * @file
 * Real-thread stream-task runtime (the paper's prototype, Sec. V).
 *
 * A thin adapter: the MTL-gated scheduling state machine lives in
 * exec::Engine (shared with the simulated runtime), and this class
 * merely binds it to a HostThreadBackend -- one pinned software
 * thread per hardware context, timed with the steady clock. Workers
 * pull attempts off the engine's lock-free ready rings; a sharded
 * admission gate bounds the memory tasks in flight by the policy's
 * MTL -- the lock-free form of the paper's "lock and a counter".
 * Every finished pair is reported to the policy, so
 * DynamicThrottlePolicy and friends behave identically here and on
 * the simulated machine. Runs take exec::EngineOptions and return
 * exec::RunResult.
 */

#ifndef TT_RUNTIME_RUNTIME_HH
#define TT_RUNTIME_RUNTIME_HH

#include "exec/engine.hh"
#include "runtime/host_backend.hh"

namespace tt::runtime {

/** Thread-pool scheduler enforcing the MTL restriction. */
class Runtime
{
  public:
    Runtime(const stream::TaskGraph &graph,
            core::SchedulingPolicy &policy, exec::EngineOptions options)
        : options_(options), backend_(graph, options_),
          engine_(graph, policy, options_)
    {
    }

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /** Execute the graph to completion; callable once. */
    exec::RunResult run() { return engine_.run(backend_); }

  private:
    exec::EngineOptions options_;
    HostThreadBackend backend_;
    exec::Engine engine_;
};

} // namespace tt::runtime

#endif // TT_RUNTIME_RUNTIME_HH
