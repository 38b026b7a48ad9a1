#include "workloads/calibration.hh"

#include <cmath>
#include <map>
#include <tuple>

#include "core/policy.hh"
#include "simrt/sim_runtime.hh"
#include "stream/builder.hh"
#include "util/logging.hh"

namespace tt::workloads {

namespace {

using Key = std::tuple<int, int, int, std::uint64_t, std::uint64_t, int,
                       std::uint64_t, std::uint64_t>;

Key
makeKey(const cpu::MachineConfig &config, std::uint64_t bytes,
        double write_fraction)
{
    // Every machine parameter that changes a memory task's timing
    // must key the memo, or a sweep over configs reuses stale
    // calibrations.
    return {config.mem.channels,
            config.mlp_per_context,
            config.contexts(),
            config.mem.llc_bytes,
            bytes,
            static_cast<int>(write_fraction * 1000.0),
            config.mem.frontend_latency,
            config.mem.dram.t_cl + config.mem.dram.t_rcd +
                config.mem.dram.t_burst};
}

// Memoisation is deliberately not thread-safe: calibration runs from
// single-threaded bench/test mains (documented in the header).
std::map<Key, double> &
cache()
{
    static std::map<Key, double> instance;
    return instance;
}

} // namespace

double
memSecondsPerByte(const cpu::MachineConfig &config, std::uint64_t bytes,
                  double write_fraction)
{
    tt_assert(bytes > 0, "cannot calibrate a zero-byte task");
    const Key key = makeKey(config, bytes, write_fraction);
    auto hit = cache().find(key);
    if (hit != cache().end())
        return hit->second;

    // A short MTL=1 run: streams are serialised, so avg_tm is the
    // contention-free memory-task time. A skip-count of warm-up
    // pairs is unnecessary -- the first task runs on a cold machine,
    // which is exactly the contention-free condition.
    stream::StreamProgramBuilder builder;
    builder.beginPhase("calibration");
    builder.addPairs(8, [&](int) {
        stream::PairSpec spec;
        spec.bytes = bytes;
        spec.write_fraction = write_fraction;
        spec.compute_cycles = 1;
        return spec;
    });
    const stream::TaskGraph graph = std::move(builder).build();

    core::StaticMtlPolicy policy(1, config.contexts());
    const exec::RunResult run = simrt::runOnce(config, graph, policy);
    tt_assert(run.avg_tm > 0.0, "calibration produced zero task time");

    const double result = run.avg_tm / static_cast<double>(bytes);
    cache()[key] = result;
    return result;
}

std::uint64_t
computeCyclesForRatio(const cpu::MachineConfig &config,
                      std::uint64_t bytes, double write_fraction,
                      double ratio)
{
    tt_assert(ratio > 0.0, "memory-to-compute ratio must be positive");
    const double tm1 =
        memSecondsPerByte(config, bytes, write_fraction) *
        static_cast<double>(bytes);
    const double tc = tm1 / ratio;
    const double cycles = tc * config.core_ghz * 1e9;
    return static_cast<std::uint64_t>(std::llround(cycles));
}

} // namespace tt::workloads
