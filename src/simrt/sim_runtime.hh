/**
 * @file
 * SimRuntime: the stream-task scheduler running on simulated time.
 *
 * A thin adapter: the MTL-gated scheduling state machine lives in
 * exec::Engine (shared with the real-thread runtime), and this class
 * merely binds it to a SimBackend over one cpu::SimMachine. The
 * scheduling rules the engine enforces are the ones the paper
 * prototypes (Sec. V):
 *
 *  - phases are barrier-separated; a phase's tasks unlock only when
 *    the previous phase fully completes;
 *  - an idle context first takes any ready compute task (compute is
 *    never throttled -- "the application thread itself does not have
 *    to stall if it has compute work to do");
 *  - otherwise it takes the next ready memory task, provided the
 *    number of in-flight memory tasks is below the policy's current
 *    MTL.
 *
 * Every finished pair is reported to the policy as a PairSample, so
 * the adaptive policies observe exactly what they would observe on
 * the real machine. Configuration (metrics, fault plan, retries,
 * watchdog, time series) comes in through the same
 * exec::EngineOptions the host runtime takes, and runs return the
 * same exec::RunResult.
 */

#ifndef TT_SIMRT_SIM_RUNTIME_HH
#define TT_SIMRT_SIM_RUNTIME_HH

#include "cpu/sim_machine.hh"
#include "exec/engine.hh"
#include "simrt/sim_backend.hh"

namespace tt::simrt {

/** Scheduler binding one graph + one policy to one machine. */
class SimRuntime
{
  public:
    /**
     * `options` configures the shared engine: `metrics` publishes
     * the same "runtime.*" series as the host runtime (plus the
     * simulator-only "sim.*" gauges), `fault_plan` mirrors the host
     * fault semantics on simulated time, `watchdog_seconds` is a
     * *simulated-time* deadline that fails the run in-band, and
     * `timeseries_out` samples on simulated time. `threads` and
     * `pin_affinity` are ignored -- the machine's hardware contexts
     * define the worker pool. `counters` must be an
     * obs::perf::SimCounterProvider to take effect (hardware
     * providers cannot observe simulated time and are ignored).
     */
    SimRuntime(cpu::SimMachine &machine, const stream::TaskGraph &graph,
               core::SchedulingPolicy &policy,
               exec::EngineOptions options = {})
        : options_(options),
          backend_(machine, graph, options_.metrics,
                   dynamic_cast<obs::perf::SimCounterProvider *>(
                       options_.counters)),
          engine_(graph, policy, options_)
    {
    }

    SimRuntime(const SimRuntime &) = delete;
    SimRuntime &operator=(const SimRuntime &) = delete;

    /** Execute the whole graph; callable once. */
    exec::RunResult run() { return engine_.run(backend_); }

  private:
    exec::EngineOptions options_;
    SimBackend backend_;
    exec::Engine engine_;
};

/**
 * Run `graph` once on a fresh machine built from `config`. When
 * `metrics` is non-null the run publishes into it.
 */
exec::RunResult runOnce(const cpu::MachineConfig &config,
                        const stream::TaskGraph &graph,
                        core::SchedulingPolicy &policy,
                        MetricsRegistry *metrics = nullptr);

/** Result of the paper's Offline Exhaustive Search baseline. */
struct OfflineSearchResult
{
    int best_mtl = 1;
    double best_seconds = 0.0;
    /** seconds_per_mtl[k-1] = makespan under static MTL=k. */
    std::vector<double> seconds_per_mtl;
};

/**
 * Offline Exhaustive Search (Sec. V): run the whole program once per
 * static MTL in [1, contexts] and keep the fastest.
 */
OfflineSearchResult offlineExhaustiveSearch(
    const cpu::MachineConfig &config, const stream::TaskGraph &graph);

} // namespace tt::simrt

#endif // TT_SIMRT_SIM_RUNTIME_HH
