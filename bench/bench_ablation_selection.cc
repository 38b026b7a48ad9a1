/**
 * @file
 * Ablation bench for the two design choices DESIGN.md calls out:
 *
 *  1. *Model-pruned selection* (binary search + two-candidate
 *     comparison) versus brute-force probing of every MTL: we count
 *     probe pairs and compare end-to-end time on a multi-phase
 *     workload. This isolates the Sec. IV-C pruning from the
 *     trigger policy.
 *
 *  2. *IdleBound phase detection* versus the naive
 *     "re-select whenever the memory-to-compute ratio changes"
 *     trigger (Sec. IV-B's strawman): on a workload whose ratio
 *     drifts within one idle-behaviour class, the naive trigger
 *     keeps re-selecting while IdleBound stays quiet.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/dynamic_policy.hh"
#include "core/online_exhaustive_policy.hh"
#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "simrt/sim_runtime.hh"
#include "stream/builder.hh"
#include "util/table.hh"
#include "workloads/calibration.hh"
#include "workloads/phased.hh"
#include "workloads/sift.hh"

namespace {

using tt::core::DynamicThrottlePolicy;

/** A workload whose ratio drifts but never crosses an IdleBound. */
tt::stream::TaskGraph
driftingWorkload(const tt::cpu::MachineConfig &machine)
{
    // Ratios 0.06 .. 0.30 all keep every core busy at MTL=1 on a
    // quad-core (boundary: 1/3), so the ideal policy selects MTL=1
    // once and never re-selects.
    std::vector<tt::workloads::PhaseSpec> phases;
    for (double ratio : {0.06, 0.10, 0.16, 0.22, 0.30, 0.12, 0.26}) {
        tt::workloads::PhaseSpec phase;
        phase.name = "drift-" + std::to_string(ratio);
        phase.tm1_over_tc = ratio;
        phase.footprint_bytes = 128 * 1024;
        phase.write_fraction = 0.5;
        phase.pairs = 96;
        phases.push_back(std::move(phase));
    }
    return tt::workloads::buildPhasedSim(machine, phases);
}

} // namespace

int
main(int argc, char **argv)
{
    tt::bench::BenchJson bench_json("ablation_selection");
    if (!bench_json.parseArgs(argc, argv))
        return 2;
    const auto machine = tt::cpu::MachineConfig::i7_860_1dimm();
    const int n = machine.contexts();
    const int w = 16;
    bench_json.config("machine", "1dimm");
    bench_json.config("window", w);

    // One row per (experiment, variant) measurement.
    const auto addRow = [&bench_json](const std::string &experiment,
                                      const std::string &variant,
                                      double speedup,
                                      const tt::exec::RunResult &run) {
        bench_json.beginRow();
        bench_json.value("experiment", experiment);
        bench_json.value("variant", variant);
        bench_json.value("speedup", speedup);
        bench_json.value("probe_pairs",
                         run.policy_stats.probe_pairs);
        bench_json.value("probe_fraction", run.monitor_overhead);
        bench_json.value("selections", run.policy_stats.selections);
    };

    std::printf("=== Ablation 1: model-pruned MTL selection vs "
                "brute-force probing ===\n\n");
    {
        const auto graph = tt::workloads::siftSim(machine);
        tt::core::ConventionalPolicy conventional(n);
        const double base =
            tt::simrt::runOnce(machine, graph, conventional).seconds;

        DynamicThrottlePolicy pruned(n, w);
        const auto pruned_run = tt::simrt::runOnce(machine, graph, pruned);

        tt::core::OnlineExhaustivePolicy brute(n, w);
        const auto brute_run = tt::simrt::runOnce(machine, graph, brute);

        addRow("selection", "pruned", base / pruned_run.seconds,
               pruned_run);
        addRow("selection", "brute_force", base / brute_run.seconds,
               brute_run);

        tt::TablePrinter table({"selector", "speedup", "probe pairs",
                                "probe fraction", "selections"});
        table.addRow(
            {"pruned (model, O(log n) probes)",
             tt::TablePrinter::num(base / pruned_run.seconds, 3),
             std::to_string(pruned_run.policy_stats.probe_pairs),
             tt::TablePrinter::pct(pruned_run.monitor_overhead),
             std::to_string(pruned_run.policy_stats.selections)});
        table.addRow(
            {"brute force (time every MTL)",
             tt::TablePrinter::num(base / brute_run.seconds, 3),
             std::to_string(brute_run.policy_stats.probe_pairs),
             tt::TablePrinter::pct(brute_run.monitor_overhead),
             std::to_string(brute_run.policy_stats.selections)});
        table.print(std::cout);
        std::printf("\n");
    }

    std::printf("=== Ablation 2: IdleBound trigger vs naive "
                "ratio-change trigger ===\n\n");
    {
        const auto graph = driftingWorkload(machine);
        tt::core::ConventionalPolicy conventional(n);
        const double base =
            tt::simrt::runOnce(machine, graph, conventional).seconds;

        DynamicThrottlePolicy idle_bound(n, w);
        const auto ib_run =
            tt::simrt::runOnce(machine, graph, idle_bound);

        DynamicThrottlePolicy naive(
            n, w, -1, DynamicThrottlePolicy::TriggerMode::kRatioChange);
        const auto naive_run = tt::simrt::runOnce(machine, graph, naive);

        addRow("trigger", "idle_bound", base / ib_run.seconds, ib_run);
        addRow("trigger", "ratio_change", base / naive_run.seconds,
               naive_run);

        tt::TablePrinter table({"trigger", "speedup", "selections",
                                "probe fraction"});
        table.addRow({"IdleBound (paper)",
                      tt::TablePrinter::num(base / ib_run.seconds, 3),
                      std::to_string(ib_run.policy_stats.selections),
                      tt::TablePrinter::pct(ib_run.monitor_overhead)});
        table.addRow({"any ratio change (naive)",
                      tt::TablePrinter::num(base / naive_run.seconds, 3),
                      std::to_string(naive_run.policy_stats.selections),
                      tt::TablePrinter::pct(naive_run.monitor_overhead)});
        table.print(std::cout);
        std::printf("\nthe drifting workload never changes core-idle "
                    "behaviour, so every selection beyond the first "
                    "is wasted monitoring\n");
    }
    return bench_json.write() ? 0 : 1;
}
