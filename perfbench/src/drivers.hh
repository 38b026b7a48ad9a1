/**
 * @file
 * How the benchmark calls into the program's layers.
 *
 * runSim() executes one simulated operation through exec::Engine and
 * simrt::SimBackend, optionally wrapped in the timing decorators, and
 * reads the layer counts back from public stats afterwards.
 *
 * The isolated drivers replay one workload's traffic shape through a
 * single layer's public API and return host nanoseconds per unit of
 * work, without instrumenting the program:
 *  - sim::EventQueue at a given heap depth,
 *  - mem::MemorySystem with k interleaved line streams,
 *  - cpu::SimMachine::run of memory tasks, solo or n-way,
 *  - exec::Engine in push mode over the zero-cost VirtualBackend,
 *  - load::AdmissionController over an arrival plan.
 */

#ifndef PERFBENCH_DRIVERS_HH
#define PERFBENCH_DRIVERS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "exec/engine.hh"
#include "load/admission.hh"
#include "load/arrival.hh"
#include "mem/dram_channel.hh"
#include "report.hh"
#include "stream/task_graph.hh"

namespace pb {

using PolicyFactory =
    std::function<std::unique_ptr<tt::core::SchedulingPolicy>()>;

/** One simulated run of a workload: machine, graph, policy, plan. */
struct SimOp
{
    std::string key; ///< stable name, used for goldens
    const tt::cpu::MachineConfig *machine = nullptr;
    const tt::stream::TaskGraph *graph = nullptr;
    PolicyFactory policy;
};

/** What one simulated run produced. */
struct SimOutput
{
    tt::exec::RunResult result;
    tt::mem::ChannelStats dram; ///< summed over channels
    double bus_util = 0.0;      ///< mean over channels
    std::uint64_t events = 0;   ///< EventQueue::executed()
    double wall_s = 0.0;        ///< host wall time of Engine::run
    std::uint64_t current_mtl_calls = 0; ///< traced runs only
    std::uint64_t timer_calls = 0;       ///< traced runs only
    std::string error; ///< run failure or schedule violation
};

/**
 * Run `graph` on a fresh machine built from `machine`. When `traced`,
 * the policy and the backend are wrapped in the timing decorators
 * and the run is recorded as a span.
 */
SimOutput runSim(const tt::cpu::MachineConfig &machine,
                 const tt::stream::TaskGraph &graph,
                 tt::core::SchedulingPolicy &policy,
                 const tt::exec::EngineOptions &options, bool traced);

/**
 * exec::validateSchedule over the schedule of `pairs` alone, checked
 * as a graph of its own. For graphs of one phase of independent
 * pairs. The MTL check then only sees concurrency among `pairs`.
 */
std::string validatePairs(const tt::stream::TaskGraph &graph,
                          const tt::exec::RunResult &result, int contexts,
                          const std::vector<tt::stream::PairId> &pairs);

/** Add the simulated statistics of a pass's runs (events, DRAM
 *  lines, row hits, queue wait, bus use, LLC peak, span queue waits)
 *  to `out` under their sim.* / mem.* / exec.* names. */
void addSimStats(const std::vector<SimOutput> &runs, LayerValues &out);

/**
 * Host cost per simulated line at a workload's traffic shape, from
 * the isolated drivers: mem.line_ns_k1/_kn (1 and n streams through
 * MemorySystem::access), cpu.task_ns_per_line_solo/_nway and their
 * cpu.self_* part (minus the memory system's share), and sim.event_ns
 * at the depth of n streams' windows of outstanding lines.
 */
void addLineCosts(const tt::cpu::MachineConfig &machine,
                  std::uint64_t task_bytes, double write_fraction,
                  LayerValues &out);

/** Host cost of the engine's push-mode dispatch for one graph. */
struct EngineCost
{
    double engine_ns = 0.0; ///< engine self time in the drive loop
    long attempts = 0;
};

/** Run `graph` over the VirtualBackend (memory attempts take `tm`,
 *  compute attempts `tc` virtual seconds). */
EngineCost enginePushCost(const tt::stream::TaskGraph &graph,
                          tt::core::SchedulingPolicy &policy,
                          const tt::exec::EngineOptions &options,
                          int contexts, double tm, double tc);

/** ns per AdmissionController::onArrival over `plan`. */
double admissionNs(const tt::load::AdmissionConfig &config, int contexts,
                   const tt::load::ArrivalPlan &plan, int repeats);

} // namespace pb

#endif // PERFBENCH_DRIVERS_HH
