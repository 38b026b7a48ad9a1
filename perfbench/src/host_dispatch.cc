/**
 * @file
 * Workload `host-dispatch`: the engine's pull-mode dispatch on real
 * worker threads, closed loop.
 *
 * One phase of kPairs trivial pairs (64 B memory task, 1 compute
 * cycle) under the conventional policy, run once with nproc workers
 * and once with one worker per pass. Each memory task writes its 64 B
 * slot and each compute task bumps it, so the slots prove every pair
 * ran exactly once in order. Throughput is timed from the first task
 * start to the last task end on the engine clock, which leaves the
 * worker pool's spawn and join outside; set-up includes one small
 * warm-up run that pays for a pool spawn/join.
 */

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "decorators.hh"
#include "drivers.hh"
#include "runtime/host_backend.hh"
#include "stream/builder.hh"
#include "util/stats.hh"
#include "workload.hh"

namespace pb {

namespace {

constexpr int kPairs = 40000;
/** exec::validateSchedule is quadratic in a schedule's memory tasks,
 *  so runs are checked in blocks of this many consecutive pairs. The
 *  conventional policy's MTL equals the worker count, so no block can
 *  hide an MTL violation. */
constexpr int kValidateBlock = 1000;
constexpr int kSlotWords = 8; ///< 64 B per pair

/** One host run and what it measured. */
struct HostRun
{
    tt::exec::RunResult result;
    double timed_s = 0.0;      ///< first task start to last task end
    double spawn_join_s = 0.0; ///< drive() minus the timed region (traced)
    double run_wall_ns = 0.0;  ///< Engine::run wall
    long parks = 0;
    long wakes = 0;
    long gate_failures = 0;
    long gate_folds = 0;
    double ring_peak_memory = 0.0;
    double ring_peak_compute = 0.0;
};

class HostDispatch final : public Workload
{
  public:
    void
    setup(const Options &options) override
    {
        // The seed sets the values the pairs write, not the graph shape.
        base_value_ = mixSeed(options.seed);
        const double t0 = wallSeconds();
        workers_ = std::max(1u, std::thread::hardware_concurrency());
        slots_.assign(static_cast<std::size_t>(kPairs) * kSlotWords, 0);
        graph_.emplace(buildGraph(kPairs));
        graph_build_s_ = wallSeconds() - t0;

        // Pay for one pool spawn/join (and warm the allocator) here.
        const tt::stream::TaskGraph warm = buildGraph(2 * workers_);
        run(warm, workers_, false);
    }

    Pass
    runPass(bool traced) override
    {
        Pass pass;
        pass.traced = traced;
        for (int workers : {workers_, 1}) {
            std::fill(slots_.begin(), slots_.end(), 0);
            HostRun r = run(*graph_, workers, traced);
            // attempts_per_s is the nproc-worker figure.
            pass.runs.push_back({r.timed_s,
                                 2 * kPairs + r.result.task_retries,
                                 workers == workers_});
            pass.ops += kPairs;
            std::string error =
                r.result.failed ? "run failed: " + r.result.failure_reason
                                : validate(r.result, workers);
            const long bad = error.empty() ? badSlots() : kPairs;
            if (error.empty() && bad > 0)
                error = std::to_string(bad) + " pairs left a wrong slot";
            if (!error.empty()) {
                pass.failed += bad;
                pass.errors.push_back(std::to_string(workers) +
                                      " workers: " + error);
            }
            if (workers != workers_ && !traced)
                walls_1w_.push_back(r.timed_s);
            if (traced) {
                spawn_join_ms_.push_back(r.spawn_join_s * 1e3);
                traced_capacity_ns_ += r.run_wall_ns * workers;
            } else if (workers == workers_) {
                if (!pull_.empty())
                    r.result = {}; // keep one full result, counts of all
                pull_.push_back(std::move(r));
            }
        }
        return pass;
    }

    /** Worker threads on every core: the single-threaded reference
     *  kernel does not track this workload's runs. */
    bool scaledToReference() const override { return false; }

    void
    outcomes(double wall_s, LayerValues &out) override
    {
        (void)wall_s;
        out["attempts_per_s_1w"] = 2.0 * kPairs / median(walls_1w_);
    }

    void
    layers(const TraceSummary &trace, LayerValues &out) override
    {
        const double attempts = 2.0 * kPairs;
        const auto med = [&](auto field) {
            std::vector<double> v;
            for (const HostRun &r : pull_)
                v.push_back(static_cast<double>(r.*field));
            return median(v);
        };
        out["runtime.parks_per_attempt"] = med(&HostRun::parks) / attempts;
        out["runtime.wakes_per_attempt"] = med(&HostRun::wakes) / attempts;
        out["util.gate_admit_failures_per_admit"] =
            med(&HostRun::gate_failures) / kPairs;
        out["util.gate_folds"] = med(&HostRun::gate_folds);
        out["util.ring_peak_memory"] = med(&HostRun::ring_peak_memory);
        out["util.ring_peak_compute"] = med(&HostRun::ring_peak_compute);
        out["runtime.pool_spawn_ms"] = median(spawn_join_ms_);
        out["stream.graph_build_s"] = graph_build_s_;

        std::vector<double> waits;
        const tt::exec::RunResult &ref = pull_.front().result;
        for (const auto &span : ref.spans)
            waits.push_back(span.critical_path.queue_wait * 1e6);
        out["exec.queue_wait_us_p50"] = quantile(waits, 0.50);
        out["exec.queue_wait_us_p99"] = quantile(waits, 0.99);

        // The same graph through the push-mode engine, zero-cost
        // backend, with the measured mean task times.
        tt::core::ConventionalPolicy policy(workers_);
        const EngineCost cost =
            enginePushCost(*graph_, policy, tt::exec::EngineOptions{},
                           workers_, ref.avg_tm, ref.avg_tc);
        out["exec.ns_per_attempt_push"] = cost.engine_ns / cost.attempts;

        // Worker time: policy calls vs everything else the workers do
        // (pull dispatch, rings, gate, runtime, the task bodies).
        const double core =
            static_cast<double>(trace.spans[kSpanOnPair].self_ns);
        out["share.core_pct"] = 100.0 * core / traced_capacity_ns_;
        out["share.runtime_pct"] = 100.0 - out["share.core_pct"];
    }

  private:
    tt::stream::TaskGraph
    buildGraph(int pairs)
    {
        tt::stream::StreamProgramBuilder builder;
        builder.beginPhase("dispatch");
        std::uint64_t *slots = slots_.data();
        const std::uint64_t base = base_value_;
        builder.addPairs(pairs, [slots, base](int p) {
            std::uint64_t *slot = slots + static_cast<std::size_t>(p) *
                                              kSlotWords;
            const std::uint64_t value = base + static_cast<std::uint64_t>(p);
            tt::stream::PairSpec spec;
            spec.host_memory = [slot, value] {
                for (int w = 0; w < kSlotWords; ++w)
                    slot[w] = value;
            };
            spec.host_compute = [slot] { ++slot[0]; };
            spec.bytes = kSlotWords * sizeof(std::uint64_t);
            spec.compute_cycles = 1;
            return spec;
        });
        return std::move(builder).build();
    }

    std::string
    validate(const tt::exec::RunResult &result, int workers) const
    {
        const auto tasks = static_cast<std::size_t>(graph_->taskCount());
        if (result.trace.size() != tasks)
            return "trace has " + std::to_string(result.trace.size()) +
                   " entries for " + std::to_string(tasks) + " tasks";
        std::vector<tt::stream::PairId> block;
        for (int first = 0; first < kPairs; first += kValidateBlock) {
            block.clear();
            for (int p = first; p < std::min(kPairs, first + kValidateBlock);
                 ++p)
                block.push_back(p);
            std::string error =
                validatePairs(*graph_, result, workers, block);
            if (!error.empty())
                return "pairs from " + std::to_string(first) + ": " + error;
        }
        return {};
    }

    /** Pairs whose slot does not read (v+1, v, ..., v), v = base + p. */
    long
    badSlots() const
    {
        long bad = 0;
        for (int p = 0; p < kPairs; ++p) {
            const std::uint64_t *slot =
                slots_.data() + static_cast<std::size_t>(p) * kSlotWords;
            const std::uint64_t value =
                base_value_ + static_cast<std::uint64_t>(p);
            bool ok = slot[0] == value + 1;
            for (int w = 1; w < kSlotWords; ++w)
                ok = ok && slot[w] == value;
            bad += !ok;
        }
        return bad;
    }

    HostRun
    run(const tt::stream::TaskGraph &graph, int workers, bool traced)
    {
        HostRun out;
        tt::MetricsRegistry registry;
        tt::core::ConventionalPolicy policy(workers);
        policy.bindMetrics(&registry);
        tt::exec::EngineOptions options;
        options.threads = workers;
        options.metrics = &registry;
        // Keep every task in the trace so validateSchedule sees all.
        options.trace_capacity =
            static_cast<std::size_t>(graph.taskCount());
        tt::runtime::HostThreadBackend backend(graph, options);
        const double t0 = wallSeconds();
        if (traced) {
            TimedPolicy timed_policy(policy);
            TimedBackend timed_backend(backend);
            tt::exec::Engine engine(graph, timed_policy, options);
            {
                ScopedSpan span(kSpanRun);
                out.result = engine.run(timed_backend);
            }
            timed_policy.restoreLogs(out.result);
            const auto &phase = out.result.phases.front();
            out.spawn_join_s =
                (timed_backend.driveEnd() - timed_backend.driveBegin()) -
                (phase.end - phase.start);
        } else {
            tt::exec::Engine engine(graph, policy, options);
            out.result = engine.run(backend);
        }
        out.run_wall_ns = (wallSeconds() - t0) * 1e9;
        const auto &phase = out.result.phases.front();
        out.timed_s = phase.end - phase.start;
        out.parks = registry.counter("runtime.worker_parks");
        out.wakes = registry.counter("runtime.worker_wakes");
        out.gate_failures = registry.counter("runtime.gate_admit_failures");
        out.gate_folds = registry.counter("runtime.gate_folds");
        out.ring_peak_memory = registry.gauge("runtime.ring_peak_memory");
        out.ring_peak_compute = registry.gauge("runtime.ring_peak_compute");
        return out;
    }

    int workers_ = 1;
    std::uint64_t base_value_ = 0;
    std::vector<std::uint64_t> slots_;
    std::optional<tt::stream::TaskGraph> graph_;
    double graph_build_s_ = 0.0;
    std::vector<HostRun> pull_; ///< untraced nproc-worker runs
    std::vector<double> walls_1w_; ///< untraced one-worker runs
    std::vector<double> spawn_join_ms_;
    double traced_capacity_ns_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeHostDispatch()
{
    return std::make_unique<HostDispatch>();
}

} // namespace pb
