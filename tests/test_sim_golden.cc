/**
 * @file
 * Exact-result pins for the simulator kernel.
 *
 * Three small fixed runs -- a Fig. 13 synthetic point at static MTL 1
 * and at MTL 4, and dft under the dynamic policy on the 1-DIMM
 * machine -- must reproduce the executed event count, the final tick
 * and every summed ChannelStats field recorded before the kernel's
 * allocation-free rewrite. A change meant only to make the simulator
 * faster must leave all of them untouched; a change that alters
 * simulated results has to update these constants deliberately.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "core/dynamic_policy.hh"
#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "cpu/sim_machine.hh"
#include "simrt/sim_runtime.hh"
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

Fingerprint
simulate(const MachineConfig &config, const tt::stream::TaskGraph &graph,
         tt::core::SchedulingPolicy &policy)
{
    SimMachine machine(config);
    tt::simrt::SimRuntime runtime(machine, graph, policy);
    const tt::simrt::RunResult result = runtime.run();
    EXPECT_FALSE(result.failed) << result.failure_reason;

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

} // namespace
