#include "simrt/sim_backend.hh"

#include <chrono>
#include <utility>

#include "fault/fault_plan.hh"
#include "mem/dram_config.hh"
#include "util/stats.hh"

namespace tt::simrt {

using stream::Task;
using stream::TaskKind;

namespace {

sim::Tick
ticksFromSeconds(double seconds)
{
    return static_cast<sim::Tick>(
        seconds * static_cast<double>(sim::kTicksPerSecond) + 0.5);
}

} // namespace

SimBackend::SimBackend(cpu::SimMachine &machine,
                       const stream::TaskGraph &graph,
                       MetricsRegistry *metrics,
                       obs::perf::SimCounterProvider *counters)
    : machine_(machine), graph_(graph), metrics_(metrics),
      counters_(counters)
{
}

double
SimBackend::now() const
{
    return machine_.nowSeconds() - start_seconds_;
}

void
SimBackend::beginRun(exec::Engine &engine)
{
    ExecutionBackend::beginRun(engine);
    in_flight_.assign(static_cast<std::size_t>(machine_.contexts()), {});
    if (counters_ != nullptr)
        counters_->prepare(machine_.contexts());
    // Engine times are seconds from run start even when the machine's
    // clock is not at zero (e.g. a reused machine).
    start_seconds_ = machine_.nowSeconds();
}

void
SimBackend::startAttempt(int context, const exec::AttemptSpec &spec)
{
    const Task &task = graph_.task(spec.task);
    if (task.kind == TaskKind::Memory && spec.attempt == 0) {
        // The pair's working set occupies the LLC from the moment the
        // prefetch stream starts filling it. Retries re-use the still
        // resident footprint (released only at pair completion).
        machine_.mem().llc().install(task.sim_work.footprint_bytes);
    }
    // The context runs this attempt alone until it is delivered, so
    // the spec waits in the context's slot and the body callbacks
    // capture only the context: small enough to stay out of the heap.
    in_flight_[static_cast<std::size_t>(context)].spec = spec;
    if (spec.rerun_memory_first) {
        // Pair-granularity retry: re-gather before re-computing.
        const Task &mem = graph_.task(graph_.memoryTaskOf(task.pair));
        machine_.run(context, mem, 0.0,
                     [this, context] { runMainBody(context); });
        return;
    }
    runMainBody(context);
}

void
SimBackend::runMainBody(int context)
{
    InFlight &attempt = in_flight_[static_cast<std::size_t>(context)];
    const Task &task = graph_.task(attempt.spec.task);
    attempt.start_tick = machine_.events().now();
    const double miss_fraction =
        task.kind == TaskKind::Compute
            ? machine_.mem().llc().missFraction()
            : 0.0;
    // Lines the body will move through the LLC -- the full stream
    // for a memory task, the demand-fetched spill for compute (the
    // same rounding SimCore applies); this becomes the synthesized
    // llc_misses count.
    attempt.miss_lines =
        task.kind == TaskKind::Memory
            ? (task.sim_work.bytes + mem::kLineBytes - 1) /
                  mem::kLineBytes
            : static_cast<std::uint64_t>(
                  miss_fraction *
                  static_cast<double>(task.sim_work.footprint_bytes /
                                      mem::kLineBytes));
    machine_.run(context, task, miss_fraction,
                 [this, context] { onBodyDone(context); });
}

void
SimBackend::onBodyDone(int context)
{
    // Read before delivery: the engine may start the context's next
    // attempt, which overwrites the slot, from inside onAttemptDone.
    const InFlight &attempt = in_flight_[static_cast<std::size_t>(context)];
    const exec::AttemptSpec &spec = attempt.spec;
    const sim::Tick start_tick = attempt.start_tick;
    const std::uint64_t miss_lines = attempt.miss_lines;
    exec::AttemptOutcome out;
    out.start = sim::toSeconds(start_tick) - start_seconds_;

    if (spec.faults.fail) {
        out.failed = true;
        out.error =
            fault::InjectedFault(spec.task, spec.attempt).what();
        out.end = now();
        engine_->onAttemptDone(context, out);
        return;
    }

    // Model a stall/straggler as extra completion latency.
    sim::Tick extra = 0;
    if (spec.faults.stall)
        extra += ticksFromSeconds(spec.stall_seconds);
    if (spec.faults.latency_factor > 1.0) {
        const sim::Tick elapsed = machine_.events().now() - start_tick;
        extra += static_cast<sim::Tick>(
            static_cast<double>(elapsed) *
            (spec.faults.latency_factor - 1.0));
    }
    const Task &task = graph_.task(spec.task);
    const bool is_memory = task.kind == TaskKind::Memory;
    const std::uint64_t compute_cycles =
        is_memory ? 0 : task.sim_work.compute_cycles;
    auto deliver = [this, context, out, is_memory, miss_lines,
                    compute_cycles]() mutable {
        out.end = now();
        if (counters_ != nullptr) {
            // Fault penalties (stall, straggler) extend out.end and
            // therefore land in the synthesized stall cycles, just
            // as a stalled host thread would keep accruing them.
            obs::perf::SimAttemptObservation obs;
            obs.is_memory = is_memory;
            obs.miss_lines = miss_lines;
            obs.compute_cycles = compute_cycles;
            obs.elapsed_seconds = out.end - out.start;
            obs.clock_hz = machine_.config().core_ghz * 1e9;
            // Synthesis is the sim's analogue of a perf fd read:
            // charge its *wall* cost to the shared obs.overhead
            // schema so both backends report counter-read cost.
            const auto t0 = std::chrono::steady_clock::now();
            out.counters = counters_->creditAttempt(context, obs);
            out.has_counters = true;
            counter_read_ns_ += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        }
        engine_->onAttemptDone(context, out);
    };
    if (extra > 0)
        machine_.events().scheduleIn(extra, std::move(deliver));
    else
        deliver();
}

SimBackend::TimerToken
SimBackend::after(double seconds, std::function<void()> fn)
{
    // EventId starts at 0; shift by one so 0 stays the "no timer"
    // sentinel of the backend contract.
    return machine_.events().scheduleIn(ticksFromSeconds(seconds),
                                        std::move(fn)) +
           1;
}

void
SimBackend::cancel(TimerToken token)
{
    if (token != 0)
        machine_.events().deschedule(token - 1);
}

void
SimBackend::drive(exec::Engine &engine)
{
    (void)engine;
    machine_.events().run();
}

void
SimBackend::pairCompleted(const stream::Task &memory_task)
{
    machine_.mem().llc().release(memory_task.sim_work.footprint_bytes);
}

void
SimBackend::finalize(exec::RunResult &result)
{
    result.peak_llc_occupancy = machine_.mem().llc().peakOccupancy();
    result.dram_accesses = machine_.mem().totalAccesses();
    double util = 0.0;
    for (int c = 0; c < machine_.mem().channelCount(); ++c)
        util += machine_.mem().channel(c).busUtilisation();
    result.bus_utilisation =
        util / static_cast<double>(machine_.mem().channelCount());

    if (metrics_) {
        metrics_->set("sim.dram_accesses",
                      static_cast<double>(result.dram_accesses));
        metrics_->set("sim.bus_utilisation", result.bus_utilisation);
        metrics_->set(
            "sim.peak_llc_occupancy_bytes",
            static_cast<double>(result.peak_llc_occupancy));
        metrics_->add("obs.overhead.counter_read_ns",
                      static_cast<std::int64_t>(counter_read_ns_));
    }
}

} // namespace tt::simrt
