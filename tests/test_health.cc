/**
 * @file
 * Streaming health engine: detector unit tests (hysteresis no-flap,
 * quiet-run silence, ring bounding), the cross-backend alert-parity
 * contract -- a seeded burst overload must produce the identical
 * ordered (rule, edge, window) sequence on real threads and on
 * simulated time -- the detector overhead budget (obs.overhead.
 * health_ns under 3% of makespan with every detector enabled), the
 * sim's ring and gate telemetry contract, and the drop rate of a sim
 * run with a capped trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "cpu/sim_machine.hh"
#include "exec/engine.hh"
#include "fault/fault_plan.hh"
#include "load/arrival.hh"
#include "obs/health.hh"
#include "runtime/runtime.hh"
#include "simrt/sim_runtime.hh"
#include "stream/builder.hh"
#include "util/stats.hh"
#include "workloads/synthetic.hh"

namespace {

using tt::core::StaticMtlPolicy;
using tt::exec::EngineOptions;
using tt::obs::AlertEdge;
using tt::obs::AlertEvent;
using tt::obs::AlertSeverity;
using tt::obs::HealthConfig;
using tt::obs::HealthEngine;
using tt::obs::JobWindowSample;
using tt::obs::TickWindowSample;
using tt::stream::PairSpec;
using tt::stream::StreamProgramBuilder;
using tt::stream::TaskGraph;

JobWindowSample
jobWindow(std::uint64_t window, int offered, int shed, int late,
          long backlog)
{
    JobWindowSample sample;
    sample.window = window;
    sample.time = 1e-3 * static_cast<double>(window);
    sample.offered = offered;
    sample.shed = shed;
    sample.predicted_late = late;
    sample.backlog = backlog;
    return sample;
}

TEST(HealthEngine, QuietWindowsEmitNoAlerts)
{
    HealthConfig config;
    config.enabled = true;
    config.model_tml = 200e-6; // every detector armed
    config.model_tql = 50e-6;
    HealthEngine engine(config);

    for (std::uint64_t w = 0; w < 32; ++w) {
        engine.onJobWindow(jobWindow(w, 16, 0, 0, 0));
        TickWindowSample tick;
        tick.window = w;
        tick.gate_folds = 1000;
        tick.gate_failures = 0;
        tick.records = 1000;
        tick.pair_samples = 16;
        tick.sum_tm = 16 * 200e-6;
        tick.sum_bound = 16 * 250e-6;
        engine.onTickWindow(tick);
    }

    EXPECT_TRUE(engine.alerts().empty());
    EXPECT_EQ(engine.alertsDropped(), 0u);
    EXPECT_FALSE(engine.criticalActive());
    for (const auto &state : engine.ruleStates()) {
        EXPECT_FALSE(state.active) << state.rule;
        EXPECT_EQ(state.fired, 0u) << state.rule;
    }
}

TEST(HealthEngine, HysteresisPreventsFlapping)
{
    HealthConfig config;
    config.enabled = true; // no window sheds, so slo_burn stays quiet
    ASSERT_EQ(tt::obs::kQueueGrowthFloor, 4);
    ASSERT_EQ(tt::obs::kHealthFireWindows, 2);
    ASSERT_EQ(tt::obs::kHealthClearWindows, 2);
    HealthEngine engine(config);

    // Alternating growth: every breach streak is broken before it
    // reaches kHealthFireWindows, so the alert must never raise.
    const long flapping[] = {10, 12, 11, 13, 12, 14, 13};
    std::uint64_t w = 0;
    for (long backlog : flapping)
        engine.onJobWindow(jobWindow(w++, 16, 0, 0, backlog));
    EXPECT_TRUE(engine.alerts().empty());

    // Sustained growth fires exactly once...
    engine.onJobWindow(jobWindow(w++, 16, 0, 0, 15)); // streak 1
    engine.onJobWindow(jobWindow(w++, 16, 0, 0, 16)); // streak 2
    ASSERT_EQ(engine.alerts().size(), 1u);
    EXPECT_EQ(engine.alerts()[0].rule, "queue_growth");
    EXPECT_EQ(engine.alerts()[0].edge, AlertEdge::Fired);
    EXPECT_EQ(engine.alerts()[0].severity, AlertSeverity::Warning);
    EXPECT_EQ(engine.alerts()[0].window, 8u);

    // ...and sustained flatness clears exactly once.
    engine.onJobWindow(jobWindow(w++, 16, 0, 0, 16));
    engine.onJobWindow(jobWindow(w++, 16, 0, 0, 16));
    ASSERT_EQ(engine.alerts().size(), 2u);
    EXPECT_EQ(engine.alerts()[1].edge, AlertEdge::Cleared);
    EXPECT_EQ(engine.alerts()[1].window, 10u);
    EXPECT_FALSE(engine.criticalActive()); // warning severity only
}

TEST(HealthEngine, SloBurnFiresUnderMissesAndClearsOnRecovery)
{
    HealthConfig config;
    config.enabled = true;
    HealthEngine engine(config);

    // Two fully-missed windows: burn = 1.0 / 0.05 = 20x the budget
    // in both EWMA windows, completing the fire streak.
    engine.onJobWindow(jobWindow(0, 16, 16, 0, 0));
    engine.onJobWindow(jobWindow(1, 16, 12, 4, 0));
    {
        const std::vector<AlertEvent> &alerts = engine.alerts();
        ASSERT_EQ(alerts.size(), 1u);
        EXPECT_EQ(alerts[0].rule, "slo_burn");
        EXPECT_EQ(alerts[0].severity, AlertSeverity::Critical);
        EXPECT_EQ(alerts[0].edge, AlertEdge::Fired);
        EXPECT_EQ(alerts[0].window, 1u);
        EXPECT_GE(alerts[0].observed, alerts[0].threshold);
    }
    EXPECT_TRUE(engine.criticalActive());

    // Clean windows decay both EWMAs below their thresholds; the
    // clear streak then drops the alert exactly once.
    for (std::uint64_t w = 2; w < 14; ++w)
        engine.onJobWindow(jobWindow(w, 16, 0, 0, 0));
    ASSERT_EQ(engine.alerts().size(), 2u);
    EXPECT_EQ(engine.alerts()[1].rule, "slo_burn");
    EXPECT_EQ(engine.alerts()[1].edge, AlertEdge::Cleared);
    EXPECT_FALSE(engine.criticalActive());
}

TEST(HealthEngine, TickDetectorsFireOnSaturationAndModelBreach)
{
    HealthConfig config;
    config.enabled = true;
    config.model_tml = 200e-6;
    config.model_tql = 50e-6;
    HealthEngine engine(config);

    TickWindowSample tick;
    tick.gate_folds = 100;
    tick.gate_failures = 90; // ratio 0.9 >= 0.5
    tick.records = 100;
    tick.pair_samples = 10;
    tick.sum_tm = 1.0;
    tick.sum_bound = 0.1; // limit 0.2 << measured 1.0
    tick.window = 0;
    engine.onTickWindow(tick);
    EXPECT_TRUE(engine.alerts().empty()) << "fired before streak";
    tick.window = 1;
    engine.onTickWindow(tick);

    bool gate_fired = false;
    bool model_fired = false;
    for (const AlertEvent &alert : engine.alerts()) {
        EXPECT_EQ(alert.edge, AlertEdge::Fired);
        gate_fired |= alert.rule == "gate_saturation";
        model_fired |= alert.rule == "model_bound";
    }
    EXPECT_TRUE(gate_fired);
    EXPECT_TRUE(model_fired);
    EXPECT_TRUE(engine.criticalActive()); // model_bound is critical
}

TEST(HealthEngine, ModelBoundStaysDisarmedWithoutAFit)
{
    HealthConfig config;
    config.enabled = true; // model_tml left at 0: no fit, no rule
    HealthEngine engine(config);

    TickWindowSample tick;
    tick.pair_samples = 10;
    tick.sum_tm = 10.0;
    tick.sum_bound = 0.1;
    for (std::uint64_t w = 0; w < 4; ++w) {
        tick.window = w;
        engine.onTickWindow(tick);
    }
    EXPECT_TRUE(engine.alerts().empty());

    // The rule still appears (disabled) so the metric schema is
    // stable across configurations. Looked up by name, so adding or
    // removing another rule does not re-index this test.
    const auto states = engine.ruleStates();
    const auto byName = [&states](const std::string &rule) {
        return std::find_if(states.begin(), states.end(),
                            [&rule](const auto &state) {
                                return state.rule == rule;
                            });
    };
    ASSERT_NE(byName("slo_burn"), states.end());
    const auto model_bound = byName("model_bound");
    ASSERT_NE(model_bound, states.end());
    EXPECT_FALSE(model_bound->enabled);
}

TEST(HealthEngine, AlertRingIsBoundedAndCountsEvictions)
{
    using tt::obs::kHealthAlertCapacity;
    HealthConfig config;
    config.enabled = true;
    HealthEngine engine(config);

    // After a backlog of 5, each cycle of backlogs 6, 7, 7, 5 fires
    // queue_growth at its first 7 and clears it at its 5, two edges a
    // cycle: one cycle more than the ring holds evicts the first.
    std::uint64_t w = 0;
    engine.onJobWindow(jobWindow(w++, 16, 0, 0, 5));
    for (std::size_t cycle = 0; cycle < kHealthAlertCapacity / 2 + 1;
         ++cycle)
        for (long backlog : {6, 7, 7, 5})
            engine.onJobWindow(jobWindow(w++, 16, 0, 0, backlog));
    ASSERT_EQ(engine.alerts().size(), kHealthAlertCapacity);
    EXPECT_EQ(engine.alertsDropped(), 2u);
    const AlertEvent &oldest = engine.alerts().front();
    EXPECT_EQ(oldest.rule, "queue_growth");
    EXPECT_EQ(oldest.edge, AlertEdge::Fired);
    EXPECT_EQ(oldest.window, 6u); // the second cycle's fire
    EXPECT_EQ(engine.alerts().back().edge, AlertEdge::Cleared);
    EXPECT_EQ(engine.alerts().back().window, w - 1);
}

/**
 * The raw-input path exec::Engine drives: verdicts close a job window
 * every kHealthWindowJobs, ticks difference the cumulative totals and
 * sum the measured pairs against T_ml + mtl * T_ql, the drain closes
 * the partial job window and a last tick window, and every edge
 * reaches the registry as it happens.
 */
TEST(HealthEngine, RawInputsBuildWindowsAndPublishEdges)
{
    using tt::obs::kHealthWindowJobs;
    HealthConfig config;
    config.enabled = true;
    config.model_tml = 1e-6;
    config.model_tql = 0.5e-6;
    tt::MetricsRegistry metrics;
    HealthEngine engine(config, &metrics);
    for (const auto &state : engine.ruleStates()) {
        const std::string rule(state.rule);
        EXPECT_TRUE(metrics.hasGauge("obs.alerts_active." + rule));
        EXPECT_TRUE(metrics.hasCounter("obs.alerts_fired." + rule));
        EXPECT_TRUE(metrics.hasCounter("obs.alerts_cleared." + rule));
    }
    EXPECT_TRUE(metrics.hasCounter("obs.alerts_dropped"));

    // Two windows of shed verdicts fire slo_burn at job window 1,
    // stamped with the verdict that closed it; the backlog grows
    // from 5 to 6 there (queue_growth streak 1).
    for (int j = 0; j < 2 * kHealthWindowJobs; ++j)
        engine.onJobVerdict(true, 0.0, 10e-6,
                            j < kHealthWindowJobs ? 5 : 6, 1e-3 * j);
    ASSERT_EQ(engine.alerts().size(), 1u);
    EXPECT_EQ(engine.alerts()[0].rule, "slo_burn");
    EXPECT_EQ(engine.alerts()[0].window, 1u);
    EXPECT_DOUBLE_EQ(engine.alerts()[0].time,
                     1e-3 * (2 * kHealthWindowJobs - 1));
    EXPECT_EQ(metrics.counter("obs.alerts_fired.slo_burn"), 1);
    EXPECT_EQ(metrics.gauge("obs.alerts_active.slo_burn"),
              static_cast<double>(AlertSeverity::Critical));

    // Pairs at MTL 2 with T_m 3x their bound T_ml + 2 T_ql = 2 us
    // breach model_bound in both ticks (non-finite samples are
    // skipped). Gate failures are 90 of the second tick's 100 folds:
    // a breach only as a delta, since cumulatively they are 90/200.
    tt::obs::HotPathTotals totals;
    for (int tick = 0; tick < 2; ++tick) {
        engine.onPairMeasured(6e-6, 2);
        engine.onPairMeasured(6e-6, 2);
        engine.onPairMeasured(std::nan(""), 2);
        totals.gate_folds += 100;
        totals.gate_failures += tick == 0 ? 0 : 90;
        totals.records += 100;
        engine.onTick(totals, 1.0 + tick);
    }
    ASSERT_EQ(engine.alerts().size(), 2u);
    const AlertEvent model = engine.alerts()[1];
    EXPECT_EQ(model.rule, "model_bound");
    EXPECT_EQ(model.window, 1u);
    EXPECT_DOUBLE_EQ(model.observed, 12e-6);
    EXPECT_DOUBLE_EQ(model.threshold, tt::obs::kModelBoundFactor * 4e-6);
    EXPECT_DOUBLE_EQ(model.time, 2.0);

    // Three admitted verdicts are a partial job window. The drain
    // closes it as job window 2, where the backlog grew again
    // (queue_growth fires), then tick window 2, whose second
    // saturated delta fires gate_saturation.
    for (int j = 0; j < 3; ++j)
        engine.onJobVerdict(false, 1e-6, 10e-6, 7, 5.0);
    EXPECT_EQ(engine.alerts().size(), 2u);
    totals.gate_folds += 100;
    totals.gate_failures += 90;
    engine.onDrain(totals, 6.0);
    ASSERT_EQ(engine.alerts().size(), 4u);
    EXPECT_EQ(engine.alerts()[2].rule, "queue_growth");
    EXPECT_EQ(engine.alerts()[2].window, 2u);
    EXPECT_DOUBLE_EQ(engine.alerts()[2].time, 6.0);
    EXPECT_EQ(engine.alerts()[3].rule, "gate_saturation");
    EXPECT_EQ(engine.alerts()[3].window, 2u);
    for (const char *rule :
         {"slo_burn", "model_bound", "queue_growth", "gate_saturation"})
        EXPECT_EQ(metrics.counter(std::string("obs.alerts_fired.") + rule),
                  1)
            << rule;
    EXPECT_GT(metrics.counter("obs.overhead.health_ns"), 0);

    // The drain's tick window carried no pairs; one more healthy
    // window clears model_bound, in the registry too.
    TickWindowSample quiet;
    quiet.window = 3;
    engine.onTickWindow(quiet);
    ASSERT_EQ(engine.alerts().size(), 5u);
    EXPECT_EQ(engine.alerts()[4].rule, "model_bound");
    EXPECT_EQ(engine.alerts()[4].edge, AlertEdge::Cleared);
    EXPECT_EQ(metrics.counter("obs.alerts_cleared.model_bound"), 1);
    EXPECT_EQ(metrics.gauge("obs.alerts_active.model_bound"), 0.0);
}

/** ~tens of microseconds of real work for host task bodies. */
void
spin()
{
    volatile double acc = 0.0;
    for (int i = 0; i < 20000; ++i)
        acc = acc + static_cast<double>(i);
}

/** One graph both backends can execute (see test_cross_backend.cc). */
TaskGraph
dualGraph(int pairs)
{
    StreamProgramBuilder builder;
    builder.beginPhase("p");
    builder.addPairs(pairs, [](int) {
        PairSpec spec;
        spec.bytes = 128 * 1024;
        spec.compute_cycles = 200000;
        spec.host_memory = [] { spin(); };
        spec.host_compute = [] { spin(); };
        return spec;
    });
    return std::move(builder).build();
}

tt::cpu::MachineConfig
simConfig(int contexts)
{
    auto config = tt::cpu::MachineConfig::i7_860_1dimm();
    config.cores = contexts;
    config.smt_ways = 1;
    return config;
}

/**
 * The tentpole acceptance contract: a seeded arrival-burst overload
 * produces the identical ordered alert sequence -- same rule, same
 * edge, same window index -- on real threads and on simulated time.
 * Only the job-window detectors' edges are compared: their inputs
 * (sheds, predicted-late admits, model backlog) are functions of the
 * arrival plan and the admission model alone, which existing
 * cross-backend tests prove identical. The tick-window detectors run
 * too, but they read live hot-path counters and are explicitly
 * excluded from the contract: host-side model_bound can still be
 * active at drain, so only slo_burn's state at drain is compared.
 */
TEST(CrossBackendHealth, SeededBurstOverloadAlertSequencesMatch)
{
    const TaskGraph graph = dualGraph(64);

    tt::fault::FaultConfig fault_config;
    fault_config.seed = 17;
    fault_config.arrival_burst_p = 0.5; // --inject-arrival-burst 0.5
    const tt::fault::FaultPlan fault_plan(fault_config);

    tt::load::ArrivalConfig arrivals;
    arrivals.seed = 13;
    arrivals.process = tt::load::ArrivalProcess::Bursty;
    arrivals.rate = 20000.0;
    arrivals.burst_period_seconds = 1e-3;
    arrivals.burst_fraction = 0.25;
    arrivals.burst_rate_factor = 3.0;
    arrivals.slo_seconds = 500e-6;
    const tt::load::ArrivalPlan plan = tt::load::buildArrivalPlan(
        arrivals, graph.pairCount(), &fault_plan);

    EngineOptions options;
    options.threads = 2;
    options.pin_affinity = false;
    options.arrival_plan = &plan;
    options.admission.queue_cap = 4;
    options.admission.service_tml = 200e-6;
    options.admission.service_tql = 50e-6;
    options.health.enabled = true;

    tt::MetricsRegistry host_metrics;
    options.metrics = &host_metrics;
    StaticMtlPolicy host_policy(1, 2);
    tt::runtime::Runtime host(graph, host_policy, options);
    const auto host_result = host.run();

    tt::MetricsRegistry sim_metrics;
    options.metrics = &sim_metrics;
    tt::cpu::SimMachine machine(simConfig(2));
    StaticMtlPolicy sim_policy(1, 2);
    tt::simrt::SimRuntime sim(machine, graph, sim_policy, options);
    const auto sim_result = sim.run();

    ASSERT_FALSE(host_result.failed);
    ASSERT_FALSE(sim_result.failed);
    ASSERT_TRUE(host_result.health_enabled);
    ASSERT_TRUE(sim_result.health_enabled);

    // The job-window rules' edges (see the test comment).
    const auto jobWindowEdges = [](const tt::exec::RunResult &result) {
        std::vector<AlertEvent> edges;
        for (const AlertEvent &alert : result.alerts)
            if (alert.rule == "slo_burn" || alert.rule == "queue_growth")
                edges.push_back(alert);
        return edges;
    };
    const std::vector<AlertEvent> host_edges = jobWindowEdges(host_result);
    const std::vector<AlertEvent> sim_edges = jobWindowEdges(sim_result);

    // The overload must actually trip a detector, or the contract is
    // vacuous.
    ASSERT_FALSE(host_edges.empty());

    ASSERT_EQ(host_edges.size(), sim_edges.size());
    for (std::size_t i = 0; i < host_edges.size(); ++i) {
        const AlertEvent &h = host_edges[i];
        const AlertEvent &s = sim_edges[i];
        EXPECT_EQ(h.rule, s.rule) << "alert " << i;
        EXPECT_EQ(static_cast<int>(h.severity),
                  static_cast<int>(s.severity))
            << "alert " << i;
        EXPECT_EQ(static_cast<int>(h.edge), static_cast<int>(s.edge))
            << "alert " << i;
        EXPECT_EQ(h.window, s.window) << "alert " << i;
        // Same deterministic inputs, same detector arithmetic.
        EXPECT_DOUBLE_EQ(h.observed, s.observed) << "alert " << i;
        EXPECT_DOUBLE_EQ(h.threshold, s.threshold) << "alert " << i;
    }
    EXPECT_EQ(host_metrics.gauge("obs.alerts_active.slo_burn"),
              sim_metrics.gauge("obs.alerts_active.slo_burn"));

    // Both backends published identical edge counters too.
    EXPECT_EQ(host_metrics.counter("obs.alerts_fired.slo_burn"),
              sim_metrics.counter("obs.alerts_fired.slo_burn"));
    EXPECT_GT(host_metrics.counter("obs.alerts_fired.slo_burn"), 0);
}

/**
 * A healthy closed-loop run, watched by the full detector set, must
 * end with an empty alert stream on both backends.
 */
TEST(CrossBackendHealth, QuietRunsEmitNoAlertsOnEitherBackend)
{
    const TaskGraph graph = dualGraph(24);
    EngineOptions options;
    options.threads = 2;
    options.pin_affinity = false;
    options.health.enabled = true;

    StaticMtlPolicy host_policy(1, 2);
    tt::runtime::Runtime host(graph, host_policy, options);
    const auto host_result = host.run();

    tt::cpu::SimMachine machine(simConfig(2));
    StaticMtlPolicy sim_policy(1, 2);
    tt::simrt::SimRuntime sim(machine, graph, sim_policy, options);
    const auto sim_result = sim.run();

    for (const tt::exec::RunResult *result :
         {&host_result, &sim_result}) {
        ASSERT_FALSE(result->failed);
        EXPECT_TRUE(result->health_enabled);
        EXPECT_TRUE(result->alerts.empty());
        EXPECT_FALSE(result->critical_alert_active);
    }
}

/**
 * Acceptance: with every detector armed (model fit included), the
 * health engine's self-measured cost stays under 3% of the makespan.
 * Host backend, so both sides of the ratio are wall time.
 */
TEST(HealthOverhead, UnderThreePercentOfMakespanAllDetectorsOn)
{
    const TaskGraph graph = dualGraph(200);

    tt::load::ArrivalConfig arrivals;
    arrivals.seed = 3;
    arrivals.rate = 4000.0;
    arrivals.slo_seconds = 30.0; // generous: a *healthy* open loop
    const tt::load::ArrivalPlan plan =
        tt::load::buildArrivalPlan(arrivals, graph.pairCount());

    tt::MetricsRegistry metrics;
    EngineOptions options;
    options.threads = 2;
    options.pin_affinity = false;
    options.metrics = &metrics;
    options.arrival_plan = &plan;
    options.admission.queue_cap = 64;
    options.admission.service_tml = 200e-6;
    options.admission.service_tql = 50e-6;
    options.health.enabled = true;
    options.health.tick_seconds = 0.001; // 10x the default tick rate

    StaticMtlPolicy policy(1, 2);
    tt::runtime::Runtime runtime(graph, policy, options);
    const auto result = runtime.run();
    ASSERT_FALSE(result.failed);
    ASSERT_TRUE(result.health_enabled);

    const double health_ns = static_cast<double>(
        metrics.counter("obs.overhead.health_ns"));
    const double makespan_ns = result.seconds * 1e9;
    ASSERT_GT(makespan_ns, 0.0);
    // The budget only means something on uninstrumented builds: the
    // sanitizers slow the detector bookkeeping (mutexes, registry
    // strings) far more than the arithmetic task bodies, so the
    // ratio is not the one users pay. The sanitizer presets still
    // run everything above -- the race coverage is the point there.
#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
    EXPECT_LT(health_ns, 0.03 * makespan_ns)
        << "health engine cost " << health_ns << " ns of "
        << makespan_ns << " ns makespan";
#endif
    EXPECT_GT(health_ns, 0.0);

    // Satellite: the new hot-path substrate telemetry is published.
    for (const char *name :
         {"runtime.gate_admit_failures", "runtime.gate_folds",
          "runtime.worker_parks", "runtime.worker_wakes"}) {
        bool found = false;
        for (const std::string &counter : metrics.counterNames())
            found |= counter == name;
        EXPECT_TRUE(found) << name;
    }
    for (const char *name :
         {"runtime.ring_peak_memory", "runtime.ring_peak_compute"}) {
        bool found = false;
        for (const std::string &gauge : metrics.gaugeNames())
            found |= gauge == name;
        EXPECT_TRUE(found) << name;
    }
}

/**
 * The sim dispatches from the same ready rings and admission gate as
 * worker threads, so their telemetry is real there too. Its push scan
 * is the only dispatcher and probes the gate exactly before
 * admitting, so a throttled run records no rejection and
 * gate_saturation stays quiet. The run is ttsim's default synthetic
 * workload at `--policy static --mtl 1 --health`.
 */
TEST(SimTelemetry, ThrottledRunReportsRingsWithoutGateRejections)
{
    const auto config = tt::cpu::MachineConfig::i7_860_1dimm();
    ASSERT_EQ(config.contexts(), 4);
    tt::workloads::SyntheticParams params;
    params.pairs = 128;
    const TaskGraph graph =
        tt::workloads::buildSyntheticSim(config, params);

    tt::MetricsRegistry metrics;
    EngineOptions options;
    options.metrics = &metrics;
    options.health.enabled = true;
    StaticMtlPolicy policy(1, config.contexts());
    tt::cpu::SimMachine machine(config);
    tt::simrt::SimRuntime sim(machine, graph, policy, options);
    const tt::exec::RunResult result = sim.run();

    ASSERT_FALSE(result.failed);
    ASSERT_TRUE(result.health_enabled);
    for (const AlertEvent &alert : result.alerts)
        EXPECT_NE(alert.rule, "gate_saturation");
    EXPECT_EQ(metrics.counter("obs.alerts_fired.gate_saturation"), 0);
    EXPECT_EQ(metrics.counter("runtime.gate_admit_failures"), 0);
    // One admission per memory task: retries keep their slot.
    EXPECT_EQ(metrics.counter("runtime.gate_folds"), graph.pairCount());
    EXPECT_EQ(result.peak_mem_in_flight, 1);
    EXPECT_EQ(metrics.gauge("runtime.peak_mem_in_flight"), 1.0);
    EXPECT_GT(metrics.gauge("runtime.ring_peak_memory"), 0.0);
}

/**
 * The drop-rate detector sees real trace drops: a sim run whose
 * trace keeps 8 events per context, of about 64 each. Once every
 * context is past the cap, each window that completes a task drops
 * events, and a window that completes none leaves the streaks alone,
 * so on any tick the alert fires once and stays active to the drain.
 * The 80 us run's edge with its drop ratio, the drop counter it
 * publishes and the run's own drop count are pinned.
 */
TEST(SimTelemetry, TraceCapacityDropsDriveTheDropRate)
{
    const auto config = tt::cpu::MachineConfig::i7_860_1dimm();
    tt::workloads::SyntheticParams params;
    params.pairs = 128;
    const TaskGraph graph =
        tt::workloads::buildSyntheticSim(config, params);

    for (const double tick_us : {20.0, 50.0, 80.0, 100.0}) {
        SCOPED_TRACE(tick_us);
        tt::MetricsRegistry metrics;
        EngineOptions options;
        options.metrics = &metrics;
        options.trace_capacity = 8;
        options.health.enabled = true;
        options.health.tick_seconds = tick_us * 1e-6;
        StaticMtlPolicy policy(2, config.contexts());
        tt::cpu::SimMachine machine(config);
        tt::simrt::SimRuntime sim(machine, graph, policy, options);
        const tt::exec::RunResult result = sim.run();

        ASSERT_FALSE(result.failed);
        // (rule, edge, window, dropped share of the window's records).
        using Edge =
            std::tuple<std::string, AlertEdge, std::uint64_t, double>;
        std::vector<Edge> edges;
        for (const AlertEvent &alert : result.alerts)
            if (alert.rule == "drop_rate")
                edges.emplace_back(alert.rule, alert.edge, alert.window,
                                   alert.observed);
        ASSERT_EQ(edges.size(), 1u);
        EXPECT_EQ(std::get<AlertEdge>(edges[0]), AlertEdge::Fired);
        if (tick_us == 80.0) {
            const Edge want{"drop_rate", AlertEdge::Fired, 23, 0.5};
            EXPECT_EQ(edges[0], want);
        }
        // 256 tasks on 4 contexts, 8 kept on each.
        EXPECT_EQ(metrics.counter("trace.events_dropped"), 224);
        EXPECT_EQ(result.trace_dropped, 224u);
        EXPECT_EQ(result.trace.size(), 32u);
    }
}

} // namespace
