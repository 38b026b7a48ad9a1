#include "simrt/sim_runtime.hh"

#include <limits>

#include "core/policy.hh"

namespace tt::simrt {

exec::RunResult
runOnce(const cpu::MachineConfig &config, const stream::TaskGraph &graph,
        core::SchedulingPolicy &policy, MetricsRegistry *metrics)
{
    cpu::SimMachine machine(config);
    exec::EngineOptions options;
    options.metrics = metrics;
    SimRuntime runtime(machine, graph, policy, options);
    return runtime.run();
}

OfflineSearchResult
offlineExhaustiveSearch(const cpu::MachineConfig &config,
                        const stream::TaskGraph &graph)
{
    OfflineSearchResult result;
    result.best_seconds = std::numeric_limits<double>::infinity();
    const int n = config.contexts();
    for (int k = 1; k <= n; ++k) {
        core::StaticMtlPolicy policy(k, n);
        const exec::RunResult run = runOnce(config, graph, policy);
        result.seconds_per_mtl.push_back(run.seconds);
        if (run.seconds < result.best_seconds) {
            result.best_seconds = run.seconds;
            result.best_mtl = k;
        }
    }
    return result;
}

} // namespace tt::simrt
