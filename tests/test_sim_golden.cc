/**
 * @file
 * Exact-result pins for the simulator kernel and the scheduler.
 *
 * Six small fixed runs -- a Fig. 13 synthetic point at static MTL 1
 * and at MTL 4, dft under the dynamic policy on the 1-DIMM machine
 * and on the 2-DIMM SMT machine, and an open-loop bursty plan under
 * the SLO-aware dynamic policy with admission, with and without every
 * obs surface -- must reproduce the executed event count, the final
 * tick and every summed ChannelStats field (the open-loop runs also
 * their job verdicts, MTL trace, time-series rows, live snapshots and
 * alert edges, and the every-surface run hashes of its metrics
 * registry and time-series text). A change meant only to make the
 * simulator or the engine faster or smaller must leave all of them
 * untouched; a change that alters simulated results has to update
 * these constants deliberately.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/dynamic_policy.hh"
#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "cpu/sim_machine.hh"
#include "load/arrival.hh"
#include "obs/health.hh"
#include "obs/live.hh"
#include "simrt/sim_runtime.hh"
#include "util/stats.hh"
#include "workloads/dft.hh"
#include "workloads/synthetic.hh"

namespace {

using tt::cpu::MachineConfig;
using tt::cpu::SimMachine;

/** What a run must reproduce bit for bit. */
struct Fingerprint
{
    std::uint64_t events = 0;
    std::uint64_t final_tick = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    std::uint64_t row_conflicts = 0;
    std::uint64_t rank_switches = 0;
    std::uint64_t write_read_turnarounds = 0;
    std::uint64_t refresh_stalls = 0;
    std::uint64_t queue_wait_ticks = 0;
    std::uint64_t busy_ticks = 0;

    bool operator==(const Fingerprint &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Fingerprint &f)
{
    // Printed as an initializer, ready to paste when a change is
    // meant to alter simulated results.
    return os << "{" << f.events << "u, " << f.final_tick << "u, "
              << f.reads << "u, " << f.writes << "u, " << f.row_hits
              << "u, " << f.row_misses << "u, " << f.row_conflicts
              << "u, " << f.rank_switches << "u, "
              << f.write_read_turnarounds << "u, " << f.refresh_stalls
              << "u, " << f.queue_wait_ticks << "u, " << f.busy_ticks
              << "u}";
}

/** 64-bit FNV-1a of `text`: a pin for a whole rendered artefact. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

/**
 * The registry's JSON without its `obs.overhead.*` lines: those
 * counters are wall-clock nanoseconds, so they differ from run to
 * run; every other line is a function of the simulation alone.
 */
std::string
registryJsonWithoutWallClock(const tt::MetricsRegistry &metrics)
{
    std::ostringstream json;
    metrics.writeJson(json);
    std::istringstream lines(json.str());
    std::string kept;
    for (std::string line; std::getline(lines, line);)
        if (line.find("\"obs.overhead.") == std::string::npos)
            kept += line + '\n';
    return kept;
}

Fingerprint
simulate(const MachineConfig &config, const tt::stream::TaskGraph &graph,
         tt::core::SchedulingPolicy &policy,
         const tt::exec::EngineOptions &options = {},
         tt::exec::RunResult *out = nullptr)
{
    SimMachine machine(config);
    tt::simrt::SimRuntime runtime(machine, graph, policy, options);
    const tt::exec::RunResult result = runtime.run();
    EXPECT_FALSE(result.failed) << result.failure_reason;
    if (out != nullptr)
        *out = result;

    Fingerprint f;
    f.events = machine.events().executed();
    f.final_tick = machine.events().now();
    const tt::mem::MemorySystem &mem = machine.mem();
    for (int c = 0; c < mem.channelCount(); ++c) {
        const tt::mem::ChannelStats &s = mem.channel(c).stats();
        f.reads += s.reads;
        f.writes += s.writes;
        f.row_hits += s.row_hits;
        f.row_misses += s.row_misses;
        f.row_conflicts += s.row_conflicts;
        f.rank_switches += s.rank_switches;
        f.write_read_turnarounds += s.write_read_turnarounds;
        f.refresh_stalls += s.refresh_stalls;
        f.queue_wait_ticks += s.queue_wait_ticks;
        f.busy_ticks += s.busy_ticks;
    }
    return f;
}

Fingerprint
fig13Point(int mtl)
{
    const auto config = MachineConfig::i7_860_1dimm();
    tt::workloads::SyntheticParams params;
    params.tm1_over_tc = 0.5;
    params.footprint_bytes = 512 * 1024;
    params.pairs = 12;
    const auto graph = tt::workloads::buildSyntheticSim(config, params);
    tt::core::StaticMtlPolicy policy(mtl, config.contexts());
    return simulate(config, graph, policy);
}

TEST(SimGolden, Fig13SyntheticStaticMtl1)
{
    const Fingerprint expected{294924u, 1565189073u, 0u,   98304u,
                               97536u,  757u,        11u,  100u,
                               0u,      171u,        121052400u,
                               737280000u};
    EXPECT_EQ(fig13Point(1), expected);
}

TEST(SimGolden, Fig13SyntheticStaticMtl4)
{
    const Fingerprint expected{294924u, 1488441133u, 0u,   98304u,
                               96990u,  750u,        564u, 18242u,
                               0u,      187u,        11677914156u,
                               737280000u};
    EXPECT_EQ(fig13Point(4), expected);
}

TEST(SimGolden, DftDynamicOneDimm)
{
    const auto config = MachineConfig::i7_860_1dimm();
    const auto graph = tt::workloads::dftSim(config);
    // W = 8: the monitoring window Fig. 14 reports dft at.
    tt::core::DynamicThrottlePolicy policy(config.contexts(), 8);
    const Fingerprint expected{2359392u, 24622463839u, 393216u, 393216u,
                               775718u, 5969u, 4745u, 26808u, 278u,
                               1364u, 13394231798u, 5898240000u};
    EXPECT_EQ(simulate(config, graph, policy), expected);
}

/**
 * Two channels and eight SMT contexts: the only pin whose lines split
 * across channels, so it checks how the channels' pick and
 * data-return events interleave with the shared front-end returns.
 */
TEST(SimGolden, DftDynamicTwoDimmSmt)
{
    const auto config = MachineConfig::i7_860_2dimm_smt();
    const auto graph = tt::workloads::dftSim(config);
    tt::core::DynamicThrottlePolicy policy(config.contexts(), 8);
    const Fingerprint expected{2359392u, 20309925808u, 393216u,
                               393216u,  765189u,     6614u,
                               14629u,   100618u,     6735u,
                               2926u,    15976955560u, 5898240000u};
    EXPECT_EQ(simulate(config, graph, policy), expected);
}

/**
 * Open loop: bursts of 2 KB jobs at the sim-open-obs knee overrun the
 * admission queue cap, so the controller sheds and the SLO-aware
 * policy pins its MTL for the drain (onBackpressure) -- an MTL change
 * that happens outside pair completion. `options` carries the obs
 * surfaces; its metrics registry, if any, is bound to the policy too.
 */
Fingerprint
openLoopBurst(tt::exec::EngineOptions options, tt::exec::RunResult &result)
{
    const auto config = MachineConfig::i7_860_1dimm();
    tt::workloads::SyntheticParams params;
    params.tm1_over_tc = 0.5;
    params.footprint_bytes = 2048;
    params.pairs = 1000;
    const auto graph = tt::workloads::buildSyntheticSim(config, params);

    tt::load::ArrivalConfig arrivals;
    arrivals.seed = 9;
    arrivals.process = tt::load::ArrivalProcess::Bursty;
    arrivals.rate = 7.0e5;
    arrivals.burst_period_seconds = 400.0 / arrivals.rate;
    arrivals.slo_seconds = 10e-6;
    arrivals.priority_levels = 2;
    const tt::load::ArrivalPlan plan =
        tt::load::buildArrivalPlan(arrivals, params.pairs);

    options.arrival_plan = &plan;
    options.admission.queue_cap = 16;
    // The Sec. IV-C fit of these pairs at MTL 1 and 4.
    options.admission.service_tml = 0.35e-6;
    options.admission.service_tql = 0.17e-6;
    options.admission.service_tc = 1.0e-6;
    tt::core::DynamicThrottlePolicy policy(config.contexts(), 16);
    policy.setSloAware();
    policy.bindMetrics(options.metrics);
    return simulate(config, graph, policy, options, &result);
}

TEST(SimGolden, OpenLoopSloAwareDynamicSheds)
{
    tt::exec::RunResult result;
    const Fingerprint expected{88979u, 1217335096u, 0u,  29024u,
                               27970u, 635u,        419u, 2124u,
                               0u,     62u,         548566467u,
                               217680000u};
    EXPECT_EQ(openLoopBurst({}, result), expected);
    EXPECT_EQ(result.jobs_admitted, 907);
    EXPECT_EQ(result.jobs_shed, 93);
    EXPECT_EQ(result.jobs_deadline_missed, 0);
    EXPECT_EQ(result.mtl_trace.size(), 13u);
}

/**
 * The same run with every obs surface on, at the sim-open-obs
 * cadence: a 20 us time series, a 5 ms live snapshot file, and health
 * on a 50 us tick whose model fit defaults to the admission service
 * times. The obs timers draw their event ids from the kernel's one
 * counter, so the executed count pins the whole timer sequence; the
 * row count, snapshot count and alert edges pin what each surface
 * saw, and two hashes pin the registry's JSON (less the wall-clock
 * `obs.overhead.*` counters) and the time-series text byte for byte.
 */
TEST(SimGolden, OpenLoopEveryObsSurface)
{
    tt::MetricsRegistry metrics;
    std::ostringstream timeseries;
    const std::string live_path =
        ::testing::TempDir() + "sim_golden_every_obs_surface.prom";
    tt::obs::LiveFileSink live(live_path, metrics);
    tt::exec::EngineOptions options;
    options.metrics = &metrics;
    options.timeseries_out = &timeseries;
    options.timeseries_interval_seconds = 20e-6;
    options.live_sink = &live;
    options.live_interval_seconds = 5e-3;
    options.health.enabled = true;
    options.health.tick_seconds = 50e-6;

    tt::exec::RunResult result;
    // The plain run's fingerprint plus 84 obs timer events.
    const Fingerprint expected{89063u, 1217335096u, 0u,  29024u,
                               27970u, 635u,        419u, 2124u,
                               0u,     62u,         548566467u,
                               217680000u};
    EXPECT_EQ(openLoopBurst(options, result), expected);
    const std::string rows = timeseries.str();
    EXPECT_EQ(std::count(rows.begin(), rows.end(), '\n'), 62);
    EXPECT_EQ(live.snapshots(), 2u);
    EXPECT_TRUE(live.ok());
    std::remove(live_path.c_str());

    // (rule, edge, window), in edge order.
    using Edge = std::tuple<std::string, std::string, std::uint64_t>;
    std::vector<Edge> edges;
    for (const tt::obs::AlertEvent &alert : result.alerts)
        edges.emplace_back(alert.rule, tt::obs::alertEdgeName(alert.edge),
                           alert.window);
    const std::vector<Edge> expected_edges{
        {"queue_growth", "fired", 2u},   {"queue_growth", "cleared", 7u},
        {"slo_burn", "fired", 8u},       {"queue_growth", "fired", 9u},
        {"queue_growth", "cleared", 12u}, {"queue_growth", "fired", 14u},
        {"queue_growth", "cleared", 16u}, {"slo_burn", "cleared", 19u},
        {"queue_growth", "fired", 30u},  {"slo_burn", "fired", 35u},
        {"queue_growth", "cleared", 40u}, {"slo_burn", "cleared", 43u},
        {"queue_growth", "fired", 43u},  {"queue_growth", "cleared", 47u},
        {"queue_growth", "fired", 57u},  {"queue_growth", "cleared", 59u},
        {"slo_burn", "fired", 60u},
    };
    EXPECT_EQ(edges, expected_edges);
    EXPECT_EQ(result.alerts_dropped, 0u);

    EXPECT_EQ(fnv1a(registryJsonWithoutWallClock(metrics)),
              14999563454326534126ull);
    EXPECT_EQ(fnv1a(rows), 15569914864697472532ull);
}

} // namespace
