/**
 * @file
 * Workload `sim-open-obs`: open-loop runs on the simulator with every
 * observability surface of the program switched on.
 *
 * Jobs are small synthetic pairs (kTaskBytes per memory task, T_m1/T_c
 * 0.5) offered by a seeded bursty arrival plan at 0.5x, 1x and 1.5x
 * the knee, under the SLO-aware dynamic policy with model-driven
 * admission. The admission model's service times are fitted in set-up
 * from two closed-loop runs (static MTL 1 and n) of the same pairs.
 * Each run has its own metrics registry, trace rings, spans, time
 * series file, health engine and live snapshot file in a temp dir.
 *
 * The knee is a constant: `perfbench --workload sim-open-obs
 * --find-knee` sweeps the offered rate with these settings and prints
 * the lowest rate whose SLO attainment drops below 95%.
 */

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "core/analytical_model.hh"
#include "core/dynamic_policy.hh"
#include "drivers.hh"
#include "load/arrival.hh"
#include "obs/live.hh"
#include "util/stats.hh"
#include "workload.hh"
#include "workloads/synthetic.hh"

namespace pb {

namespace {

constexpr std::uint64_t kTaskBytes = 2048;
constexpr int kJobsPerRun = 8000;
constexpr double kSloSeconds = 10e-6;
constexpr int kQueueCap = 16;
constexpr int kWindow = 16;
/** Jobs per second where SLO attainment crosses 95%, rounded: on seed
 *  1, --find-knee reads 0.986 at 596k and 0.895 at 745k jobs/s. */
constexpr double kKneeRate = 7.0e5;
constexpr double kRateMultipliers[] = {0.5, 1.0, 1.5};
// Observability cadence on simulated time: a run at the knee lasts
// a few simulated milliseconds.
constexpr double kTimeseriesInterval = 20e-6;
constexpr double kLiveInterval = 5e-3;
constexpr double kHealthTick = 50e-6;

/** Program obs cost of one run, host ns, from its obs.overhead.*. */
struct ObsCost
{
    double trace_record = 0.0;
    double sampler = 0.0;
    double live_export = 0.0;
    double health = 0.0;
    double counter_read = 0.0;

    void
    add(const tt::MetricsRegistry &m)
    {
        trace_record += m.counter("obs.overhead.trace_record_ns");
        sampler += m.counter("obs.overhead.sampler_ns");
        live_export += m.counter("obs.overhead.live_export_ns");
        health += m.counter("obs.overhead.health_ns");
        counter_read += m.counter("obs.overhead.counter_read_ns");
    }

    /** Cost of the optional sinks and ticks; trace recording is
     *  always on, so it is part of the engine's own cost. */
    double
    optional() const
    {
        return sampler + live_export + health + counter_read;
    }
};

class SimOpenObs final : public Workload
{
  public:
    void
    setup(const Options &options) override
    {
        const double t0 = wallSeconds();
        const int n = m1_.contexts();
        tmp_dir_ = options.out_dir + "/tmp";
        std::filesystem::create_directories(tmp_dir_);

        tt::workloads::SyntheticParams params;
        params.tm1_over_tc = 0.5;
        params.footprint_bytes = kTaskBytes;
        params.pairs = kJobsPerRun;
        graph_.emplace(tt::workloads::buildSyntheticSim(m1_, params));

        // Fit T_m = T_ml + b * T_ql (Sec. IV-C) from MTL = 1 and n.
        params.pairs = 256;
        const tt::stream::TaskGraph fit_graph =
            tt::workloads::buildSyntheticSim(m1_, params);
        tt::core::StaticMtlPolicy solo(1, n);
        tt::core::StaticMtlPolicy all(n, n);
        const SimOutput r1 = runSim(m1_, fit_graph, solo, {}, false);
        const SimOutput rn = runSim(m1_, fit_graph, all, {}, false);
        const auto fit = tt::core::QueuingModel::fit(
            1, r1.result.avg_tm, n, rn.result.avg_tm);
        admission_.queue_cap = kQueueCap;
        admission_.service_tml = fit.tml;
        admission_.service_tql = fit.tql;
        admission_.service_tc = r1.result.avg_tc;

        for (std::size_t i = 0; i < std::size(kRateMultipliers); ++i)
            plans_.push_back(buildPlan(options.seed, i,
                                       kRateMultipliers[i] * kKneeRate));
        graph_build_s_ = wallSeconds() - t0;
    }

    Pass
    runPass(bool traced) override
    {
        Pass pass;
        pass.traced = traced;
        std::vector<SimOutput> outputs;
        ObsCost obs;
        for (std::size_t i = 0; i < plans_.size(); ++i) {
            const std::string ts_path =
                tmp_dir_ + "/timeseries-" + std::to_string(i) + ".jsonl";
            std::ofstream timeseries(ts_path, std::ios::trunc);
            tt::MetricsRegistry registry;
            tt::obs::LiveFileSink live(
                tmp_dir_ + "/live-" + std::to_string(i) + ".prom", registry);
            auto policy = makePolicy();
            policy->bindMetrics(&registry);
            tt::exec::EngineOptions engine = options(plans_[i]);
            engine.metrics = &registry;
            engine.timeseries_out = &timeseries;
            engine.timeseries_interval_seconds = kTimeseriesInterval;
            engine.live_sink = &live;
            engine.live_interval_seconds = kLiveInterval;
            engine.health.enabled = true;
            engine.health.tick_seconds = kHealthTick;

            SimOutput out = runSim(m1_, *graph_, *policy, engine, traced);
            timeseries.close();
            current_mtl_calls_ += out.current_mtl_calls;
            timer_calls_ += out.timer_calls;
            obs.add(registry);
            pass.runs.push_back(
                {out.wall_s,
                 2 * static_cast<long>(out.result.samples.size()) +
                     out.result.task_retries});
            ++pass.ops;
            std::string error = out.error;
            if (error.empty() && !live.ok())
                error = "live snapshot sink failed";
            const std::string key = "rate" + std::to_string(i);
            if (!error.empty())
                pass.errors.push_back(key + ": " + error);
            pass.prints.push_back(
                {key, simOutcome(out.result, out.dram, out.events),
                 error.empty()});
            if (reference_.empty())
                timeseries_rows_ += countLines(ts_path);
            outputs.push_back(std::move(out));
        }
        (traced ? traced_obs_ : untraced_obs_).push_back(obs);
        if (reference_.empty())
            reference_ = std::move(outputs);
        return pass;
    }

    void
    outcomes(double wall_s, LayerValues &out) override
    {
        double sim_seconds = 0.0;
        double offered = 0.0;
        double met = 0.0;
        std::vector<double> responses;
        for (const SimOutput &o : reference_) {
            const tt::exec::RunResult &r = o.result;
            sim_seconds += r.seconds;
            offered += r.jobs_offered;
            met += r.jobs_admitted - r.jobs_deadline_missed;
            responses.insert(responses.end(), r.response_seconds.begin(),
                             r.response_seconds.end());
        }
        out["sim_s_per_wall_s"] = sim_seconds / wall_s;
        out["slo_attainment"] = met / offered;
        out["sim_response_p99_us"] = quantile(responses, 0.99) * 1e6;
        out["sim_response_samples"] = static_cast<double>(responses.size());
    }

    void
    layers(const TraceSummary &trace, LayerValues &out) override
    {
        const int n = m1_.contexts();
        const double passes = trace.traced_passes;
        addSimStats(reference_, out);

        double offered = 0.0;
        double attempts = 0.0;
        for (const SimOutput &o : reference_) {
            const tt::exec::RunResult &r = o.result;
            offered += r.jobs_offered;
            attempts += 2.0 * r.samples.size();
            out["load.admitted"] += r.jobs_admitted;
            out["load.delayed"] += r.jobs_delayed;
            out["load.shed"] += r.jobs_shed;
            out["load.deadline_missed"] += r.jobs_deadline_missed;
            out["core.probe_fraction"] +=
                r.monitor_overhead / static_cast<double>(reference_.size());
            out["core.selections"] += r.policy_stats.selections;
        }
        out["obs.timeseries_rows"] = timeseries_rows_;

        // The program's own obs.overhead.* counters, untraced passes.
        const auto perJob = [&](double ObsCost::*field) {
            std::vector<double> v;
            for (const ObsCost &c : untraced_obs_)
                v.push_back(c.*field / offered);
            return median(v);
        };
        out["obs.trace_record_ns_per_job"] = perJob(&ObsCost::trace_record);
        out["obs.sampler_ns_per_job"] = perJob(&ObsCost::sampler);
        out["obs.live_export_ns_per_job"] = perJob(&ObsCost::live_export);
        out["obs.health_ns_per_job"] = perJob(&ObsCost::health);

        // Isolated drivers at this workload's traffic shape: many
        // short interleaved streams of kTaskBytes store tasks.
        addLineCosts(m1_, kTaskBytes, 1.0, out);

        double decide = 0.0;
        for (const auto &plan : plans_)
            decide += admissionNs(admission_, n, plan, 20);
        out["load.decide_ns"] = decide / plans_.size();

        double engine_ns = 0.0;
        double engine_attempts = 0.0;
        for (std::size_t i = 0; i < plans_.size(); ++i) {
            auto policy = makePolicy();
            const EngineCost cost = enginePushCost(
                *graph_, *policy, options(plans_[i]), n,
                reference_[i].result.avg_tm, reference_[i].result.avg_tc);
            engine_ns += cost.engine_ns;
            engine_attempts += cost.attempts;
        }
        const double ns_per_attempt = engine_ns / engine_attempts;
        out["exec.ns_per_attempt_push"] = ns_per_attempt;

        double traced_obs = 0.0;
        for (const ObsCost &c : traced_obs_)
            traced_obs += c.optional();
        out["simrt.timer_calls"] = timer_calls_ / passes;
        out["core.current_mtl_calls"] = current_mtl_calls_ / passes;
        out["stream.graph_build_s"] = graph_build_s_;

        LayerTimes times;
        times.exec_in_drive = ns_per_attempt * attempts * passes;
        times.load = out["load.decide_ns"] * offered * passes;
        times.obs = traced_obs;
        simShares(trace, times, out);
    }

    /** Sweep the offered rate; print the knee. */
    int
    findKnee(const Options &options_in)
    {
        setup(options_in);
        double knee = 0.0;
        for (double rate = 1e5; rate <= 1e7; rate *= 1.25) {
            auto policy = makePolicy();
            const tt::load::ArrivalPlan plan =
                buildPlan(options_in.seed, 0, rate);
            const SimOutput out =
                runSim(m1_, *graph_, *policy, options(plan), false);
            const tt::exec::RunResult &r = out.result;
            std::printf("rate %12.0f  attainment %.4f  shed %ld  "
                        "missed %ld  p99 %.1f us\n",
                        rate, r.slo_attainment, r.jobs_shed,
                        r.jobs_deadline_missed,
                        quantile(r.response_seconds, 0.99) * 1e6);
            if (knee == 0.0 && r.slo_attainment < 0.95)
                knee = rate;
        }
        std::printf("knee %.0f jobs/s (service fit: tml %.3g s, "
                    "tql %.3g s, tc %.3g s)\n",
                    knee, admission_.service_tml, admission_.service_tql,
                    admission_.service_tc);
        return 0;
    }

  private:
    tt::load::ArrivalPlan
    buildPlan(std::uint64_t seed, std::size_t index, double rate) const
    {
        tt::load::ArrivalConfig arrivals;
        arrivals.seed = mixSeed(seed * 8 + index);
        arrivals.process = tt::load::ArrivalProcess::Bursty;
        arrivals.rate = rate;
        // Bursts a few hundred jobs long at the knee.
        arrivals.burst_period_seconds = 400.0 / kKneeRate;
        arrivals.slo_seconds = kSloSeconds;
        arrivals.priority_levels = 2;
        return tt::load::buildArrivalPlan(arrivals, kJobsPerRun);
    }

    std::unique_ptr<tt::core::SchedulingPolicy>
    makePolicy() const
    {
        auto policy = std::make_unique<tt::core::DynamicThrottlePolicy>(
            m1_.contexts(), kWindow);
        policy->setSloAware();
        return policy;
    }

    /** Engine options of one run, observability off. */
    tt::exec::EngineOptions
    options(const tt::load::ArrivalPlan &plan) const
    {
        tt::exec::EngineOptions o;
        o.arrival_plan = &plan;
        o.admission = admission_;
        return o;
    }

    static double
    countLines(const std::string &path)
    {
        std::ifstream in(path);
        double lines = 0.0;
        std::string line;
        while (std::getline(in, line))
            ++lines;
        return lines;
    }

    const tt::cpu::MachineConfig m1_ = tt::cpu::MachineConfig::i7_860_1dimm();
    std::optional<tt::stream::TaskGraph> graph_;
    tt::load::AdmissionConfig admission_;
    std::vector<tt::load::ArrivalPlan> plans_;
    std::string tmp_dir_;
    std::vector<SimOutput> reference_; ///< first pass, untraced
    std::vector<ObsCost> untraced_obs_;
    std::vector<ObsCost> traced_obs_;
    double timeseries_rows_ = 0.0;
    double graph_build_s_ = 0.0;
    double current_mtl_calls_ = 0.0;
    double timer_calls_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeSimOpenObs()
{
    return std::make_unique<SimOpenObs>();
}

int
findKnee(const Options &options)
{
    SimOpenObs workload;
    return workload.findKnee(options);
}

} // namespace pb
