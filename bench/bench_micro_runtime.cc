/**
 * @file
 * google-benchmark microbenchmarks of the runtime primitives: the
 * analytical model evaluation, phase detector and selector state
 * machines, the event queue, the DRAM channel, host-runtime pair
 * dispatch, and the live-telemetry hot paths (span recording, one
 * OpenMetrics scrape). These bound the per-decision overhead the
 * dynamic mechanism adds to an application (the paper argues that
 * overhead is negligible; here it is nanoseconds per event).
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/analytical_model.hh"
#include "util/concurrency/mpmc_queue.hh"
#include "util/concurrency/mtl_gate.hh"
#include "core/dynamic_policy.hh"
#include "core/mtl_selector.hh"
#include "core/phase_detector.hh"
#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "mem/dram_channel.hh"
#include "obs/live.hh"
#include "runtime/runtime.hh"
#include "sim/event_queue.hh"
#include "simrt/sim_runtime.hh"
#include "stream/builder.hh"
#include "util/stats.hh"

namespace {

void
BM_ModelSpeedup(benchmark::State &state)
{
    double tm = 0.1;
    for (auto _ : state) {
        tm += 1e-9;
        benchmark::DoNotOptimize(
            tt::core::AnalyticalModel::speedup(tm, 0.5, 1.0, 2, 4));
    }
}
BENCHMARK(BM_ModelSpeedup);

void
BM_ModelIdleBound(benchmark::State &state)
{
    double tm = 0.1;
    for (auto _ : state) {
        tm += 1e-9;
        benchmark::DoNotOptimize(
            tt::core::AnalyticalModel::idleBound(tm, 1.0, 4));
    }
}
BENCHMARK(BM_ModelIdleBound);

void
BM_PhaseDetectorSample(benchmark::State &state)
{
    tt::core::PhaseDetector detector(16, 4);
    tt::core::PairSample sample;
    sample.tm = 0.2;
    sample.tc = 1.0;
    sample.mtl = 4;
    for (auto _ : state)
        benchmark::DoNotOptimize(detector.addSample(sample, 4));
}
BENCHMARK(BM_PhaseDetectorSample);

void
BM_FullMtlSelection(benchmark::State &state)
{
    const auto cores = static_cast<int>(state.range(0));
    for (auto _ : state) {
        tt::core::MtlSelector selector(cores);
        while (auto mtl = selector.nextProbe())
            selector.reportProbe(*mtl, 0.4 + 0.05 * *mtl, 1.0);
        benchmark::DoNotOptimize(selector.result());
    }
}
BENCHMARK(BM_FullMtlSelection)->Arg(4)->Arg(8)->Arg(64);

void
BM_DynamicPolicyPair(benchmark::State &state)
{
    tt::core::DynamicThrottlePolicy policy(4, 16);
    tt::core::PairSample sample;
    sample.tm = 0.2;
    sample.tc = 1.0;
    double clock = 0.0;
    for (auto _ : state) {
        clock += 1.2;
        sample.end_time = clock;
        sample.mtl = policy.currentMtl();
        policy.onPairMeasured(sample);
    }
}
BENCHMARK(BM_DynamicPolicyPair);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        tt::sim::EventQueue queue;
        for (int i = 0; i < 1024; ++i)
            queue.schedule(static_cast<tt::sim::Tick>(i * 7 % 997),
                           [] {});
        queue.run();
        benchmark::DoNotOptimize(queue.executed());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

/** Owner of BM_EventQueueLaneRun's lanes. */
struct LaneSink
{
    std::uint64_t sum = 0;

    void fire(std::uint32_t arg) { sum += arg; }
};

void
BM_EventQueueLaneRun(benchmark::State &state)
{
    // The DRAM path's shape: three monotone lanes (pick, data return,
    // front-end return) carry 1008 events, the heap 16 sparse ones.
    for (auto _ : state) {
        tt::sim::EventQueue queue;
        LaneSink sink;
        std::array<tt::sim::Lane, 3> lanes;
        for (tt::sim::Lane &lane : lanes)
            lane = queue.addLane<LaneSink, &LaneSink::fire>(&sink);
        for (std::uint32_t i = 0; i < 1024; ++i) {
            const auto when = static_cast<tt::sim::Tick>(i);
            if (i % 64 == 0)
                queue.schedule(when * 7 % 997, [] {});
            else
                queue.schedule(lanes[i % 3], when, i);
        }
        queue.run();
        benchmark::DoNotOptimize(sink.sum);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueLaneRun);

void
BM_DramChannelStream(benchmark::State &state)
{
    for (auto _ : state) {
        tt::sim::EventQueue queue;
        tt::mem::DramChannel channel(queue, tt::mem::DramConfig{});
        int done = 0;
        for (std::uint64_t line = 0; line < 512; ++line) {
            tt::mem::DramRequest req;
            req.line_addr = line;
            req.on_complete = [&done] { ++done; };
            channel.submit(std::move(req));
        }
        queue.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_DramChannelStream);

void
BM_SimRuntimeSmallGraph(benchmark::State &state)
{
    const auto machine = tt::cpu::MachineConfig::i7_860_1dimm();
    tt::stream::StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(16, [](int) {
        tt::stream::PairSpec spec;
        spec.bytes = 64 * 1024;
        spec.compute_cycles = 100000;
        return spec;
    });
    const auto graph = std::move(builder).build();
    for (auto _ : state) {
        tt::core::ConventionalPolicy policy(machine.contexts());
        benchmark::DoNotOptimize(
            tt::simrt::runOnce(machine, graph, policy).seconds);
    }
}
BENCHMARK(BM_SimRuntimeSmallGraph);

void
BM_HostRuntimePairDispatch(benchmark::State &state)
{
    // Cost of scheduling one (trivial) pair through the real-thread
    // runtime, single worker: queue + gate + timing overhead. Timed
    // by the dispatch window, as BM_HostDispatchThroughput is, so the
    // graph build, the pool's spawn and join and the calling thread's
    // CPU time stay out.
    for (auto _ : state) {
        tt::stream::StreamProgramBuilder builder;
        builder.beginPhase("p");
        builder.addPairs(256, [](int) {
            tt::stream::PairSpec spec;
            spec.bytes = 64;
            spec.compute_cycles = 1;
            return spec;
        });
        const auto graph = std::move(builder).build();
        tt::core::ConventionalPolicy policy(1);
        tt::exec::EngineOptions opts;
        opts.threads = 1;
        opts.pin_affinity = false;
        tt::runtime::Runtime runtime(graph, policy, opts);
        const tt::exec::RunResult result = runtime.run();
        benchmark::DoNotOptimize(result.samples.size());
        const tt::exec::PhaseResult &phase = result.phases.front();
        state.SetIterationTime(phase.end - phase.start);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_HostRuntimePairDispatch)->UseManualTime();

void
BM_MpmcQueuePushPop(benchmark::State &state)
{
    // The dispatch-op primitive of the lock-free fast path: one ring
    // enqueue plus one dequeue (what a completion + the next worker
    // pay instead of a scheduler-mutex round trip).
    tt::util::MpmcQueue<int> queue(1024);
    int out = 0;
    for (auto _ : state) {
        queue.tryPush(1);
        queue.tryPop(out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpmcQueuePushPop);

void
BM_MtlGateAdmit(benchmark::State &state)
{
    // One MTL admission + release through the gate (the lock-free
    // form of the mem_in_flight < MTL check), uncontended and from
    // four threads on one gate, which share its count's line. The
    // bound is the thread count, so no admission is refused.
    static tt::util::MtlGate gate(4);
    const auto worker = static_cast<std::size_t>(state.thread_index());
    for (auto _ : state) {
        benchmark::DoNotOptimize(gate.tryAcquire(worker, 4));
        gate.release();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MtlGateAdmit)->Threads(1)->Threads(4);

void
BM_HostDispatchThroughput(benchmark::State &state)
{
    // End-to-end dispatch-op throughput of the pull-mode hot path:
    // trivial bodies, so the measured rate is queue-pop + admission
    // + completion bookkeeping across real worker threads. One item
    // = one task attempt (memory + compute per pair). Each iteration
    // is timed by its dispatch window -- the run's one phase, first
    // task start to last task end in wall time -- which leaves the
    // pool's spawn and join and the calling thread's CPU time out, so
    // /1, /2 and /4 read as the 1->4 worker curve.
    const int threads = static_cast<int>(state.range(0));
    constexpr int kPairs = 1024;
    for (auto _ : state) {
        tt::stream::StreamProgramBuilder builder;
        builder.beginPhase("p");
        builder.addPairs(kPairs, [](int) {
            tt::stream::PairSpec spec;
            spec.bytes = 64;
            spec.compute_cycles = 1;
            return spec;
        });
        const auto graph = std::move(builder).build();
        tt::core::ConventionalPolicy policy(threads);
        tt::exec::EngineOptions opts;
        opts.threads = threads;
        opts.pin_affinity = false;
        tt::runtime::Runtime runtime(graph, policy, opts);
        const tt::exec::RunResult result = runtime.run();
        benchmark::DoNotOptimize(result.samples.size());
        const tt::exec::PhaseResult &phase = result.phases.front();
        state.SetIterationTime(phase.end - phase.start);
    }
    state.SetItemsProcessed(state.iterations() * kPairs * 2);
}
BENCHMARK(BM_HostDispatchThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime();

void
BM_SimDispatch64Contexts(benchmark::State &state)
{
    // Scheduler-side dispatch cost at scale: a 64-context machine
    // (16 cores x 4-way SMT) pushing a wide phase through the
    // deterministic engine. One item = one task dispatch decision.
    auto machine = tt::cpu::MachineConfig::power7();
    machine.cores = 16;
    machine.smt_ways = 4;
    constexpr int kPairs = 512;
    tt::stream::StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(kPairs, [](int) {
        tt::stream::PairSpec spec;
        spec.bytes = 4 * 1024;
        spec.compute_cycles = 10000;
        return spec;
    });
    const auto graph = std::move(builder).build();
    for (auto _ : state) {
        tt::core::ConventionalPolicy policy(machine.contexts());
        benchmark::DoNotOptimize(
            tt::simrt::runOnce(machine, graph, policy).seconds);
    }
    state.SetItemsProcessed(state.iterations() * kPairs * 2);
}
// At ~tens of ms per iteration, google-benchmark's default time
// budget can settle on a single iteration -- too noisy to gate on.
// Pinning the iteration count keeps the measured throughput stable
// across runs, which is what lets check_regression.py include this
// benchmark in the dispatch gate.
BENCHMARK(BM_SimDispatch64Contexts)->Iterations(8);

void
BM_OpenMetricsRender(benchmark::State &state)
{
    // Per-scrape cost of the live endpoint: render a registry the
    // size of a real run's (the serving thread pays exactly this,
    // charged to obs.overhead.live_export_ns).
    tt::MetricsRegistry metrics;
    for (int i = 0; i < 32; ++i)
        metrics.add("runtime.counter_" + std::to_string(i), i);
    for (int i = 0; i < 8; ++i)
        metrics.set("runtime.gauge_" + std::to_string(i), 0.5 * i);
    for (int i = 0; i < 8; ++i)
        for (int s = 0; s < 512; ++s)
            metrics.observe("runtime.hist_" + std::to_string(i),
                            1e-6 * s);
    for (auto _ : state) {
        auto text = tt::obs::openMetricsText(metrics, 1.0);
        benchmark::DoNotOptimize(text.data());
    }
}
BENCHMARK(BM_OpenMetricsRender);

} // namespace

/**
 * Same contract as the figure benches: `--json-out [FILE]` writes
 * machine-readable results (default BENCH_micro_runtime.json). Here
 * it is sugar for google-benchmark's own JSON reporter
 * (--benchmark_out=FILE --benchmark_out_format=json), so the file
 * follows that schema rather than the BenchJson one; native
 * --benchmark_* flags still pass through untouched.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv, argv + argc);
    std::string json_path;
    for (std::size_t i = 1; i < args.size();) {
        if (args[i] == "--json-out") {
            json_path = "BENCH_micro_runtime.json";
            args.erase(args.begin() + static_cast<long>(i));
            if (i < args.size() && args[i][0] != '-') {
                json_path = args[i];
                args.erase(args.begin() + static_cast<long>(i));
            }
        } else if (args[i].rfind("--json-out=", 0) == 0) {
            json_path = args[i].substr(std::string("--json-out=").size());
            args.erase(args.begin() + static_cast<long>(i));
        } else {
            ++i;
        }
    }
    if (!json_path.empty()) {
        args.push_back("--benchmark_out=" + json_path);
        args.push_back("--benchmark_out_format=json");
    }
    std::vector<char *> cargs;
    for (auto &arg : args)
        cargs.push_back(arg.data());
    int cargc = static_cast<int>(cargs.size());
    benchmark::Initialize(&cargc, cargs.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
