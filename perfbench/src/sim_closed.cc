/**
 * @file
 * Workload `sim-closed`: a closed-loop, reduced regeneration of the
 * paper's figures on the deterministic simulator, with the program's
 * observability off.
 *
 *  - Fig. 13: the synthetic sweep at two T_m1/T_c grid points (the
 *    seed offsets the grid inside the S-MTL = 1 and 2 regions) x
 *    0.5/1/2 MB footprints x static MTL 1..n.
 *  - Fig. 14: dft / SC_d128 / SIFT under conventional, dynamic and
 *    online-exhaustive scheduling on the 1-DIMM machine.
 *  - Fig. 18: the same three graphs, conventional vs dynamic, on the
 *    2-DIMM SMT machine (8 contexts).
 *
 * The fig. 14/18 graphs are the program's own phase lists with every
 * per-pair footprint divided by kFootprintDivisor: pair counts,
 * phases and calibrated T_m1/T_c ratios are kept, so the monitoring
 * windows and MTL decisions see the same structure, with fewer lines.
 */

#include <cmath>
#include <memory>

#include "core/analytical_model.hh"
#include "core/dynamic_policy.hh"
#include "core/online_exhaustive_policy.hh"
#include "drivers.hh"
#include "workload.hh"
#include "workloads/dft.hh"
#include "workloads/phased.hh"
#include "workloads/sift.hh"
#include "workloads/streamcluster.hh"
#include "workloads/synthetic.hh"

namespace pb {

namespace {

constexpr int kFig13Pairs = 6;
constexpr std::uint64_t kFootprintDivisor = 16;
/** Fig. 14 dynamic-throttling geomean speedup reported by the paper. */
constexpr double kPaperFig14Geomean = 1.12;

struct RealWorkload
{
    const char *name;
    std::vector<tt::workloads::PhaseSpec> phases;
    int window; ///< W per Sec. VI-C, as in the figure benches
};

std::vector<RealWorkload>
realWorkloads()
{
    std::vector<RealWorkload> out{
        {"dft", tt::workloads::dftPhases(), 8},
        {"SC_d128", tt::workloads::streamclusterPhases(128), 16},
        {"SIFT", tt::workloads::siftPhases(), 16}};
    for (RealWorkload &w : out)
        for (tt::workloads::PhaseSpec &phase : w.phases)
            phase.footprint_bytes =
                std::max<std::uint64_t>(8192, phase.footprint_bytes /
                                                  kFootprintDivisor);
    return out;
}

class SimClosed final : public Workload
{
  public:
    void
    setup(const Options &options) override
    {
        const double t0 = wallSeconds();
        const int n = m1_.contexts();

        // Fig. 13 grid: one point inside each of the S-MTL = 1 and 2
        // regions (edges at k/(n-k) = 1/3 and 1), shifted by the seed.
        const double shift =
            static_cast<double>(mixSeed(options.seed) % 1000) / 1000.0;
        const double base_ratios[] = {0.2, 0.6};
        const std::uint64_t footprints[] = {512 << 10, 1 << 20, 2 << 20};
        for (std::uint64_t footprint : footprints) {
            for (int r = 0; r < 2; ++r) {
                tt::workloads::SyntheticParams params;
                params.tm1_over_tc = base_ratios[r] * (1.0 + 0.25 * shift);
                params.footprint_bytes = footprint;
                params.pairs = kFig13Pairs;
                graphs_.push_back(std::make_unique<tt::stream::TaskGraph>(
                    tt::workloads::buildSyntheticSim(m1_, params)));
                fig13_first_op_.push_back(static_cast<int>(ops_.size()));
                const std::string point =
                    "fig13/" + std::to_string(footprint >> 10) + "K/r" +
                    std::to_string(r);
                for (int k = 1; k <= n; ++k)
                    addOp(point + "/mtl" + std::to_string(k), m1_, [k, n] {
                        return std::make_unique<tt::core::StaticMtlPolicy>(
                            k, n);
                    });
            }
        }

        // Fig. 14 (1-DIMM) and fig. 18 (2-DIMM SMT).
        for (const RealWorkload &w : realWorkloads()) {
            addRealGraph("fig14/", m1_, w, true);
            addRealGraph("fig18smt/", smt_, w, false);
        }
        graph_build_s_ = wallSeconds() - t0;
    }

    Pass
    runPass(bool traced) override
    {
        Pass pass;
        pass.traced = traced;
        std::vector<SimOutput> outputs;
        for (const SimOp &op : ops_) {
            auto policy = op.policy();
            SimOutput out = runSim(*op.machine, *op.graph, *policy,
                                   tt::exec::EngineOptions{}, traced);
            pass.runs.push_back(
                {out.wall_s,
                 2 * static_cast<long>(out.result.samples.size()) +
                     out.result.task_retries});
            ++pass.ops;
            if (!out.error.empty())
                pass.errors.push_back(op.key + ": " + out.error);
            pass.prints.push_back(
                {op.key, simOutcome(out.result, out.dram, out.events),
                 out.error.empty()});
            current_mtl_calls_ += out.current_mtl_calls;
            timer_calls_ += out.timer_calls;
            outputs.push_back(std::move(out));
        }
        if (reference_.empty())
            reference_ = std::move(outputs);
        return pass;
    }

    void
    outcomes(double wall_s, LayerValues &out) override
    {
        double sim_seconds = 0.0;
        for (const SimOutput &o : reference_)
            sim_seconds += o.result.seconds;
        std::vector<double> speedups;
        for (const Comparison &c : comparisons_)
            speedups.push_back(ref(c.conventional).result.seconds /
                               ref(c.dynamic).result.seconds);
        out["sim_s_per_wall_s"] = sim_seconds / wall_s;
        out["dmtl_speedup"] = geomean(speedups);
    }

    void
    layers(const TraceSummary &trace, LayerValues &out) override
    {
        const int n = m1_.contexts();
        const double passes = trace.traced_passes;

        addSimStats(reference_, out);

        std::vector<double> tm_ratios;
        std::vector<double> fig14_speedups;
        double probe = 0.0;
        double selections = 0.0;
        for (const Comparison &c : comparisons_) {
            const SimOutput &conv = ref(c.conventional);
            const SimOutput &dyn = ref(c.dynamic);
            tm_ratios.push_back(dyn.result.avg_tm / conv.result.avg_tm);
            if (c.fig14)
                fig14_speedups.push_back(conv.result.seconds /
                                         dyn.result.seconds);
            probe += dyn.result.monitor_overhead;
            selections += dyn.result.policy_stats.selections;
        }
        out["mem.tm_ratio_dmtl"] = geomean(tm_ratios);
        out["core.probe_fraction"] = probe / comparisons_.size();
        out["core.selections"] = selections;
        out["core.dmtl_err_vs_paper"] =
            std::abs(geomean(fig14_speedups) - kPaperFig14Geomean);

        // Fig. 13: the analytical model's speedup at the best static
        // MTL against the measured one.
        double model_err = 0.0;
        for (int first : fig13_first_op_) {
            const tt::exec::RunResult &base = ref(first + n - 1).result;
            int best = n;
            for (int k = 1; k <= n; ++k)
                if (ref(first + k - 1).result.seconds <
                    ref(first + best - 1).result.seconds)
                    best = k;
            const tt::exec::RunResult &run = ref(first + best - 1).result;
            const double model = tt::core::AnalyticalModel::speedup(
                run.avg_tm, base.avg_tm, run.avg_tc, best, n);
            model_err = std::max(
                model_err, std::abs(model - base.seconds / run.seconds));
        }
        out["core.model_abs_err_max"] = model_err;

        // Isolated drivers at this workload's traffic shape: 1-DIMM,
        // 512 KB memory tasks, half of them scatter writes.
        addLineCosts(m1_, 512 << 10, 0.5, out);

        // The engine alone, replaying every operation over the
        // zero-cost backend with its measured mean task times.
        double engine_ns = 0.0;
        double engine_attempts = 0.0;
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            auto policy = ops_[i].policy();
            const EngineCost cost = enginePushCost(
                *ops_[i].graph, *policy, tt::exec::EngineOptions{},
                ops_[i].machine->contexts(), reference_[i].result.avg_tm,
                reference_[i].result.avg_tc);
            engine_ns += cost.engine_ns;
            engine_attempts += cost.attempts;
        }
        const double ns_per_attempt = engine_ns / engine_attempts;
        out["exec.ns_per_attempt_push"] = ns_per_attempt;

        out["simrt.timer_calls"] = timer_calls_ / passes;
        out["core.current_mtl_calls"] = current_mtl_calls_ / passes;
        out["stream.graph_build_s"] = graph_build_s_;

        LayerTimes times;
        double attempts = 0.0;
        for (const SimOutput &o : reference_)
            attempts += 2.0 * o.result.samples.size();
        times.exec_in_drive = ns_per_attempt * attempts * passes;
        simShares(trace, times, out);
    }

  private:
    /** Conventional vs dynamic operations on one real graph. */
    struct Comparison
    {
        int conventional;
        int dynamic;
        bool fig14;
    };

    template <typename Factory>
    void
    addOp(const std::string &key, const tt::cpu::MachineConfig &machine,
          Factory factory)
    {
        SimOp op;
        op.key = key;
        op.machine = &machine;
        op.graph = graphs_.back().get();
        op.policy = factory;
        ops_.push_back(std::move(op));
    }

    void
    addRealGraph(const std::string &prefix,
                 const tt::cpu::MachineConfig &machine,
                 const RealWorkload &w, bool with_online)
    {
        graphs_.push_back(std::make_unique<tt::stream::TaskGraph>(
            tt::workloads::buildPhasedSim(machine, w.phases)));
        const int n = machine.contexts();
        const int window = w.window;
        const std::string key = prefix + w.name;
        Comparison c{static_cast<int>(ops_.size()),
                     static_cast<int>(ops_.size()) + 1, with_online};
        addOp(key + "/conventional", machine, [n] {
            return std::make_unique<tt::core::ConventionalPolicy>(n);
        });
        addOp(key + "/dynamic", machine, [n, window] {
            return std::make_unique<tt::core::DynamicThrottlePolicy>(
                n, window);
        });
        if (with_online)
            addOp(key + "/online", machine, [n, window] {
                return std::make_unique<tt::core::OnlineExhaustivePolicy>(
                    n, window);
            });
        comparisons_.push_back(c);
    }

    const SimOutput &ref(int op) const
    {
        return reference_[static_cast<std::size_t>(op)];
    }

    const tt::cpu::MachineConfig m1_ = tt::cpu::MachineConfig::i7_860_1dimm();
    const tt::cpu::MachineConfig smt_ =
        tt::cpu::MachineConfig::i7_860_2dimm_smt();
    std::vector<std::unique_ptr<tt::stream::TaskGraph>> graphs_;
    std::vector<SimOp> ops_;
    std::vector<int> fig13_first_op_;
    std::vector<Comparison> comparisons_;
    std::vector<SimOutput> reference_; ///< first pass, untraced
    double graph_build_s_ = 0.0;
    double current_mtl_calls_ = 0.0;
    double timer_calls_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeSimClosed()
{
    return std::make_unique<SimClosed>();
}

} // namespace pb
