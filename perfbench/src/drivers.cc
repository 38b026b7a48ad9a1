#include "drivers.hh"

#include <vector>

#include "cpu/sim_machine.hh"
#include "decorators.hh"
#include "mem/mem_system.hh"
#include "reference.hh"
#include "report.hh"
#include "sim/event_queue.hh"
#include "simrt/sim_backend.hh"
#include "span_log.hh"
#include "virtual_backend.hh"

namespace pb {

namespace {

/** exec::validateSchedule over the pairs a run executed (open-loop
 *  runs shed some); "" when the schedule is valid. */
std::string
validateRun(const tt::stream::TaskGraph &graph,
            const tt::exec::RunResult &result, int contexts)
{
    if (result.jobs_shed == 0)
        return tt::exec::validateSchedule(graph, result, contexts);
    // Shed pairs never run, and the validator expects every task of
    // the graph in the trace: check the admitted pairs on their own.
    std::vector<tt::stream::PairId> admitted;
    for (const tt::exec::JobRecord &job : result.jobs)
        if (job.decision != tt::load::AdmissionDecision::Shed)
            admitted.push_back(job.pair);
    if (result.trace.size() != 2 * admitted.size())
        return "trace has " + std::to_string(result.trace.size()) +
               " entries for " + std::to_string(admitted.size()) +
               " admitted pairs";
    return validatePairs(graph, result, contexts, admitted);
}

} // namespace

SimOutput
runSim(const tt::cpu::MachineConfig &machine_config,
       const tt::stream::TaskGraph &graph, tt::core::SchedulingPolicy &policy,
       const tt::exec::EngineOptions &options, bool traced)
{
    sampleReference();
    SimOutput out;
    tt::cpu::SimMachine machine(machine_config);
    tt::simrt::SimBackend backend(machine, graph, options.metrics);
    if (traced) {
        TimedPolicy timed_policy(policy);
        TimedBackend timed_backend(backend);
        tt::exec::Engine engine(graph, timed_policy, options);
        const double t0 = wallSeconds();
        {
            ScopedSpan span(kSpanRun);
            out.result = engine.run(timed_backend);
        }
        out.wall_s = wallSeconds() - t0;
        timed_policy.restoreLogs(out.result);
        out.current_mtl_calls = timed_policy.currentMtlCalls();
        out.timer_calls = timed_backend.timerCalls();
    } else {
        tt::exec::Engine engine(graph, policy, options);
        const double t0 = wallSeconds();
        out.result = engine.run(backend);
        out.wall_s = wallSeconds() - t0;
    }

    out.events = machine.events().executed();
    const tt::mem::MemorySystem &mem = machine.mem();
    for (int c = 0; c < mem.channelCount(); ++c) {
        const tt::mem::ChannelStats &s = mem.channel(c).stats();
        out.dram.reads += s.reads;
        out.dram.writes += s.writes;
        out.dram.row_hits += s.row_hits;
        out.dram.row_misses += s.row_misses;
        out.dram.row_conflicts += s.row_conflicts;
        out.dram.queue_wait_ticks += s.queue_wait_ticks;
        out.dram.busy_ticks += s.busy_ticks;
        out.bus_util += mem.channel(c).busUtilisation();
    }
    out.bus_util /= mem.channelCount();

    if (out.result.failed)
        out.error = "run failed: " + out.result.failure_reason;
    else
        out.error = validateRun(graph, out.result, machine.contexts());
    return out;
}

std::string
validatePairs(const tt::stream::TaskGraph &graph,
              const tt::exec::RunResult &result, int contexts,
              const std::vector<tt::stream::PairId> &pairs)
{
    std::vector<tt::stream::PairId> renumber(
        static_cast<std::size_t>(graph.pairCount()), -1);
    tt::stream::TaskGraph sub;
    sub.beginPhase(graph.phase(0).name);
    for (tt::stream::PairId pair : pairs) {
        tt::stream::Task memory = graph.task(graph.memoryTaskOf(pair));
        tt::stream::Task compute = graph.task(graph.computeTaskOf(pair));
        memory.deps.clear();
        compute.deps.clear();
        renumber[static_cast<std::size_t>(pair)] =
            sub.addPair(std::move(memory), std::move(compute));
    }
    tt::exec::RunResult renumbered;
    renumbered.mtl_trace = result.mtl_trace;
    for (const tt::obs::TaskEvent &event : result.trace) {
        const tt::stream::PairId pair =
            renumber[static_cast<std::size_t>(event.pair)];
        if (pair < 0)
            continue;
        tt::obs::TaskEvent copy = event;
        copy.pair = pair;
        copy.task = event.is_memory ? sub.memoryTaskOf(pair)
                                    : sub.computeTaskOf(pair);
        renumbered.trace.push_back(copy);
    }
    return tt::exec::validateSchedule(sub, renumbered, contexts);
}

void
addSimStats(const std::vector<SimOutput> &runs, LayerValues &out)
{
    std::uint64_t events = 0;
    tt::mem::ChannelStats dram;
    double bus_util = 0.0;
    double peak_llc = 0.0;
    std::vector<double> queue_waits;
    for (const SimOutput &o : runs) {
        events += o.events;
        dram.reads += o.dram.reads;
        dram.writes += o.dram.writes;
        dram.row_hits += o.dram.row_hits;
        dram.queue_wait_ticks += o.dram.queue_wait_ticks;
        bus_util += o.bus_util;
        peak_llc = std::max(
            peak_llc, static_cast<double>(o.result.peak_llc_occupancy));
        for (const auto &span : o.result.spans)
            if (span.outcome != tt::obs::SpanOutcome::Shed)
                queue_waits.push_back(span.critical_path.queue_wait * 1e6);
        out["obs.spans"] += static_cast<double>(o.result.spans.size());
    }
    const double lines = static_cast<double>(dram.reads + dram.writes);
    out["sim.events"] = static_cast<double>(events);
    out["sim.events_per_line"] = events / lines;
    out["mem.lines"] = lines;
    out["mem.row_hit_rate"] = dram.row_hits / lines;
    out["mem.queue_wait_ns_per_line"] =
        static_cast<double>(dram.queue_wait_ticks) / 1e3 / lines;
    out["mem.bus_util"] = bus_util / static_cast<double>(runs.size());
    out["mem.peak_llc_bytes"] = peak_llc;
    out["exec.queue_wait_us_p50"] = quantile(queue_waits, 0.50);
    out["exec.queue_wait_us_p99"] = quantile(queue_waits, 0.99);
}

namespace {

/** State shared by the self-rescheduling events of eventQueueNs. */
struct TickState
{
    tt::sim::EventQueue queue;
    std::uint64_t rng = 42;
    std::uint64_t remaining = 0;

    tt::sim::Tick
    delay()
    {
        rng = mixSeed(rng);
        return 1 + (rng & 0xffff);
    }
};

/** One event; reschedules itself, keeping the heap depth constant. */
struct Tick
{
    TickState *state;

    void
    operator()() const
    {
        if (state->remaining == 0)
            return;
        --state->remaining;
        state->queue.scheduleIn(state->delay(), *this);
    }
};

/** Line streams driven straight into a MemorySystem. */
class StreamDriver
{
  public:
    StreamDriver(const tt::cpu::MachineConfig &machine, int streams,
                 std::uint64_t task_bytes, double write_fraction,
                 std::uint64_t target_lines)
        : mem_(events_, machine.mem), window_(machine.mlp_per_context),
          lines_per_task_((task_bytes + tt::mem::kLineBytes - 1) /
                          tt::mem::kLineBytes),
          target_(target_lines),
          lines_per_row_(machine.mem.dram.linesPerRow()),
          streams_(static_cast<std::size_t>(streams))
    {
        const auto writes = static_cast<std::uint64_t>(
            write_fraction * static_cast<double>(lines_per_task_));
        writes_from_ = lines_per_task_ - writes;
    }

    std::uint64_t
    run()
    {
        for (std::size_t s = 0; s < streams_.size(); ++s)
            startTask(s);
        events_.run();
        return completed_;
    }

  private:
    struct Stream
    {
        std::uint64_t base = 0;
        std::uint64_t issued = 0;
        std::uint64_t done = 0;
    };

    void
    startTask(std::size_t s)
    {
        constexpr std::uint64_t kRows = 1 << 15;
        Stream &st = streams_[s];
        st = Stream{};
        st.base = (mixSeed(tasks_++) % kRows) * lines_per_row_;
        issue(s);
    }

    void
    issue(std::size_t s)
    {
        Stream &st = streams_[s];
        while (st.issued - st.done < static_cast<std::uint64_t>(window_) &&
               st.issued < lines_per_task_) {
            const bool write = st.issued >= writes_from_;
            const std::uint64_t line = st.base + st.issued++;
            ++issued_;
            mem_.access(line, write, [this, s] { onLine(s); });
        }
    }

    void
    onLine(std::size_t s)
    {
        Stream &st = streams_[s];
        ++st.done;
        ++completed_;
        if (st.done < lines_per_task_)
            issue(s);
        else if (issued_ < target_)
            startTask(s);
    }

    tt::sim::EventQueue events_;
    tt::mem::MemorySystem mem_;
    int window_;
    std::uint64_t lines_per_task_;
    std::uint64_t writes_from_ = 0;
    std::uint64_t target_;
    std::uint64_t lines_per_row_;
    std::vector<Stream> streams_;
    std::uint64_t tasks_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
};

/** ns per schedule + runOne with `depth` events pending. */
double
eventQueueNs(int depth, std::uint64_t ops)
{
    TickState state;
    state.remaining = ops;
    for (int i = 0; i < depth; ++i)
        state.queue.scheduleIn(state.delay(), Tick{&state});
    const double t0 = wallSeconds();
    state.queue.run();
    const double wall = wallSeconds() - t0;
    return wall * 1e9 / static_cast<double>(state.queue.executed());
}

/** ns per line through MemorySystem::access, `streams` streams of
 *  `task_bytes`-byte tasks interleaved, each with the machine's
 *  per-context window of outstanding lines. */
double
memLineNs(const tt::cpu::MachineConfig &machine, int streams,
          std::uint64_t task_bytes, double write_fraction,
          std::uint64_t lines)
{
    StreamDriver driver(machine, streams, task_bytes, write_fraction, lines);
    const double t0 = wallSeconds();
    const std::uint64_t done = driver.run();
    return (wallSeconds() - t0) * 1e9 / static_cast<double>(done);
}

/** ns per line of memory tasks run back to back through
 *  SimMachine::run on `contexts` contexts at once. */
double
machineLineNs(const tt::cpu::MachineConfig &machine_config, int contexts,
              std::uint64_t task_bytes, double write_fraction,
              std::uint64_t lines)
{
    const std::uint64_t lines_per_task =
        (task_bytes + tt::mem::kLineBytes - 1) / tt::mem::kLineBytes;
    const std::size_t task_count = static_cast<std::size_t>(
        (lines + lines_per_task - 1) / lines_per_task);
    std::vector<tt::stream::Task> tasks(task_count);
    for (std::size_t i = 0; i < task_count; ++i) {
        tasks[i].id = static_cast<tt::stream::TaskId>(i);
        tasks[i].kind = tt::stream::TaskKind::Memory;
        tasks[i].sim_work.bytes = task_bytes;
        tasks[i].sim_work.write_fraction = write_fraction;
        tasks[i].sim_work.footprint_bytes = task_bytes;
    }

    tt::cpu::SimMachine machine(machine_config);
    std::size_t next = 0;
    std::function<void(int)> start = [&](int context) {
        if (next >= task_count)
            return;
        machine.run(context, tasks[next++], 0.0,
                    [&start, context] { start(context); });
    };
    const double t0 = wallSeconds();
    for (int c = 0; c < contexts; ++c)
        start(c);
    machine.events().run();
    const double wall = wallSeconds() - t0;
    return wall * 1e9 /
           static_cast<double>(task_count * lines_per_task);
}

} // namespace

void
addLineCosts(const tt::cpu::MachineConfig &machine,
             std::uint64_t task_bytes, double write_fraction,
             LayerValues &out)
{
    // Interleaved rounds, medians: the four drivers see the same
    // machine conditions.
    constexpr std::uint64_t kLines = 150000;
    const int n = machine.contexts();
    std::vector<double> k1, kn, solo, nway;
    for (int round = 0; round < 3; ++round) {
        k1.push_back(memLineNs(machine, 1, task_bytes, write_fraction, kLines));
        solo.push_back(
            machineLineNs(machine, 1, task_bytes, write_fraction, kLines));
        kn.push_back(memLineNs(machine, n, task_bytes, write_fraction, kLines));
        nway.push_back(
            machineLineNs(machine, n, task_bytes, write_fraction, kLines));
    }
    out["mem.line_ns_k1"] = median(k1);
    out["mem.line_ns_kn"] = median(kn);
    out["cpu.task_ns_per_line_solo"] = median(solo);
    out["cpu.task_ns_per_line_nway"] = median(nway);
    out["cpu.self_ns_per_line_solo"] = median(solo) - median(k1);
    out["cpu.self_ns_per_line_nway"] = median(nway) - median(kn);
    out["sim.event_ns"] = eventQueueNs(n * machine.mlp_per_context, 1000000);
}

EngineCost
enginePushCost(const tt::stream::TaskGraph &graph,
               tt::core::SchedulingPolicy &policy,
               const tt::exec::EngineOptions &options, int contexts,
               double tm, double tc)
{
    TimedPolicy timed_policy(policy);
    VirtualBackend backend(graph, contexts, tm, tc);
    TimedBackend timed_backend(backend);
    tt::exec::Engine engine(graph, timed_policy, options);
    const auto before = spanTotals();
    const tt::exec::RunResult result = engine.run(timed_backend);
    const auto after = spanTotals();
    // The engine's own work in the drive loop: what the drive span and
    // the timer callbacks spent outside the policy and backend calls.
    const auto self = [&](SpanName name) {
        return static_cast<double>(after[name].self_ns -
                                   before[name].self_ns);
    };
    EngineCost cost;
    cost.engine_ns = self(kSpanDrive) + self(kSpanTimerFire);
    cost.attempts = 2 * static_cast<long>(result.samples.size());
    return cost;
}

double
admissionNs(const tt::load::AdmissionConfig &config, int contexts,
            const tt::load::ArrivalPlan &plan, int repeats)
{
    long shed = 0;
    const double t0 = wallSeconds();
    for (int r = 0; r < repeats; ++r) {
        tt::load::AdmissionController controller(config, contexts);
        for (const tt::load::JobSpec &job : plan.jobs)
            shed += controller.onArrival(job).decision ==
                    tt::load::AdmissionDecision::Shed;
    }
    const double wall = wallSeconds() - t0;
    (void)shed;
    return wall * 1e9 /
           static_cast<double>(static_cast<std::size_t>(repeats) *
                               plan.jobs.size());
}

} // namespace pb
