/**
 * @file
 * SimBackend: the exec::Engine execution substrate backed by the
 * discrete-event machine model.
 *
 * Attempts execute as SimMachine task runs; the engine's one-shot
 * timers (retry backoff, watchdog deadline, time-series sampling)
 * map onto event-queue entries, so every engine feature -- including
 * the watchdog -- operates on *simulated* time. Being single-
 * threaded, a fired sim watchdog fails the run in-band instead of
 * terminating the process.
 */

#ifndef TT_SIMRT_SIM_BACKEND_HH
#define TT_SIMRT_SIM_BACKEND_HH

#include <cstdint>
#include <vector>

#include "cpu/sim_machine.hh"
#include "exec/engine.hh"
#include "obs/perf/sim_counter_provider.hh"
#include "stream/task_graph.hh"

namespace tt {
class MetricsRegistry;
}

namespace tt::simrt {

/** Simulated-machine execution backend. */
class SimBackend final : public exec::ExecutionBackend
{
  public:
    /**
     * References are borrowed and must outlive the backend. When
     * `counters` is non-null, every attempt body is credited with a
     * synthesized CounterSet (see obs/perf/sim_counter_provider.hh)
     * delivered through AttemptOutcome -- the sim analogue of the
     * host backend's per-thread perf reads.
     */
    SimBackend(cpu::SimMachine &machine, const stream::TaskGraph &graph,
               MetricsRegistry *metrics,
               obs::perf::SimCounterProvider *counters = nullptr);

    int contexts() const override { return machine_.contexts(); }
    double now() const override;
    void beginRun(exec::Engine &engine) override;
    void startAttempt(int context,
                      const exec::AttemptSpec &spec) override;
    TimerToken after(double seconds,
                     std::function<void()> fn) override;
    void cancel(TimerToken token) override;
    void drive(exec::Engine &engine) override;
    void pairCompleted(const stream::Task &memory_task) override;
    void finalize(exec::RunResult &result) override;

  private:
    /** The attempt one context runs, from startAttempt() until it is
     *  delivered: a context runs one attempt at a time. */
    struct InFlight
    {
        exec::AttemptSpec spec;
        sim::Tick start_tick = 0;     ///< the main body's start
        std::uint64_t miss_lines = 0; ///< LLC-miss lines it modelled
    };

    /** Run the context's attempt's own task body (after any memory
     *  re-run). */
    void runMainBody(int context);
    /** Body finished: realize fail/stall/straggler faults, deliver. */
    void onBodyDone(int context);

    cpu::SimMachine &machine_;
    const stream::TaskGraph &graph_;
    MetricsRegistry *metrics_ = nullptr;
    obs::perf::SimCounterProvider *counters_ = nullptr;
    double start_seconds_ = 0.0; ///< sim clock at beginRun()
    /** Wall ns spent synthesizing counters (obs.overhead.*). */
    std::uint64_t counter_read_ns_ = 0;
    std::vector<InFlight> in_flight_; ///< by context, from beginRun()
};

} // namespace tt::simrt

#endif // TT_SIMRT_SIM_BACKEND_HH
