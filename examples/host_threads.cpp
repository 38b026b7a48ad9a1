/**
 * @file
 * Example: the real-thread runtime (the paper's actual prototype).
 *
 * Builds the Fig. 12 synthetic kernel with real host loops, runs it
 * on a std::thread worker pool with the lock+counter MTL gate, and
 * compares the conventional schedule against dynamic throttling.
 *
 * Note: speedups on an arbitrary host depend on its core count and
 * memory system (this is exactly why the paper's evaluation is
 * reproduced on the deterministic simulated machine -- see
 * DESIGN.md); this example demonstrates the runtime API and the
 * scheduling mechanics on real threads.
 *
 * Usage: host_threads [threads] [count]
 *   threads: worker threads (default 2)
 *   count:   compute-loop repetitions per task (default 8)
 */

#include <cstdio>
#include <cstdlib>

#include "core/dynamic_policy.hh"
#include "core/policy.hh"
#include "runtime/runtime.hh"
#include "util/stats.hh"
#include "workloads/synthetic.hh"

int
main(int argc, char **argv)
{
    const int threads = argc > 1 ? std::atoi(argv[1]) : 2;
    const int count = argc > 2 ? std::atoi(argv[2]) : 8;
    if (threads < 1 || count < 0) {
        std::fprintf(stderr, "usage: host_threads [threads>=1] "
                             "[count>=0]\n");
        return 1;
    }

    tt::workloads::SyntheticParams params;
    params.footprint_bytes = 256 * 1024;
    params.pairs = 96;

    tt::exec::EngineOptions options;
    options.threads = threads;

    // Conventional: memory tasks never throttled.
    auto conventional_workload =
        tt::workloads::buildSyntheticHost(params, count);
    tt::core::ConventionalPolicy conventional(threads);
    tt::runtime::Runtime base_rt(conventional_workload.graph,
                                 conventional, options);
    const auto base = base_rt.run();

    // Dynamic throttling on the same kernel, with the metrics
    // registry bound to both the policy and the runtime.
    auto throttled_workload =
        tt::workloads::buildSyntheticHost(params, count);
    tt::core::DynamicThrottlePolicy dynamic(threads, 8);
    tt::MetricsRegistry metrics;
    dynamic.bindMetrics(&metrics);
    options.metrics = &metrics;
    tt::runtime::Runtime dyn_rt(throttled_workload.graph, dynamic,
                                options);
    const auto run = dyn_rt.run();

    std::printf("host runtime, %d worker threads, %d pairs\n", threads,
                params.pairs);
    std::printf("conventional:      %8.3f ms  (avg T_m %.1f us, "
                "avg T_c %.1f us, peak concurrent memory tasks %d)\n",
                base.seconds * 1e3, base.avg_tm * 1e6,
                base.avg_tc * 1e6, base.peak_mem_in_flight);
    const int final_mtl =
        run.mtl_trace.empty() ? threads : run.mtl_trace.back().second;
    std::printf("dynamic throttle:  %8.3f ms  (D-MTL %d, %ld "
                "selections, peak concurrent memory tasks %d)\n",
                run.seconds * 1e3, final_mtl,
                run.policy_stats.selections, run.peak_mem_in_flight);
    std::printf("speedup on this host: %.3fx\n",
                base.seconds / run.seconds);
    std::printf("\nmetrics of the throttled run:\n%s",
                metrics.summaryTable().c_str());
    return 0;
}
