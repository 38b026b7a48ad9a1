/**
 * @file
 * Tests of the simulated core and machine: task latency composition,
 * MLP window behaviour, compute-cycle timing, SMT slowdown, demand
 * misses on LLC overflow, context mapping, and an allocation-free
 * per-line path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "cpu/machine_config.hh"
#include "cpu/sim_machine.hh"

namespace {

/** Heap allocations made through global operator new so far. */
std::atomic<std::uint64_t> g_allocations{0};

} // namespace

// Counting replacements for this test binary: the array and nothrow
// forms forward here by default. Kept out of line so GCC's
// -Wmismatched-new-delete does not pair an inlined free() with the
// new-expression that allocated the pointer.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using tt::cpu::MachineConfig;
using tt::cpu::SimMachine;
using tt::stream::SimWork;
using tt::stream::Task;
using tt::stream::TaskKind;

Task
memoryTask(std::uint64_t bytes, int id = 0)
{
    Task task;
    task.id = id;
    task.kind = TaskKind::Memory;
    task.sim_work.bytes = bytes;
    task.sim_work.footprint_bytes = bytes;
    return task;
}

Task
computeTask(std::uint64_t cycles, std::uint64_t footprint = 0, int id = 1)
{
    Task task;
    task.id = id;
    task.kind = TaskKind::Compute;
    task.sim_work.compute_cycles = cycles;
    task.sim_work.footprint_bytes = footprint;
    return task;
}

double
runSingle(SimMachine &machine, const Task &task, double miss = 0.0,
          int context = 0)
{
    bool done = false;
    machine.run(context, task, miss, [&] { done = true; });
    machine.events().run();
    EXPECT_TRUE(done);
    return machine.nowSeconds();
}

TEST(SimCore, ComputeTaskTimeIsCyclesTimesPeriod)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    SimMachine machine(cfg);
    const std::uint64_t cycles = 280000; // 100 us at 2.8 GHz
    const double seconds = runSingle(machine, computeTask(cycles));
    EXPECT_NEAR(seconds, 1e-4, 1e-6);
}

TEST(SimCore, MemoryTaskStreamsNearSingleStreamBandwidth)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    SimMachine machine(cfg);
    const std::uint64_t bytes = 512 * 1024;
    const double seconds = runSingle(machine, memoryTask(bytes));
    const double bw = static_cast<double>(bytes) / seconds;
    // One stream with MLP=3 must land well below the 8.5 GB/s bus
    // peak but in the GB/s range (the calibration premise).
    EXPECT_GT(bw, 1.5e9);
    EXPECT_LT(bw, 6.0e9);
}

TEST(SimCore, MemoryTaskTimeScalesWithSize)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    SimMachine a(cfg);
    const double t1 = runSingle(a, memoryTask(256 * 1024, 3));
    SimMachine b(cfg);
    const double t2 = runSingle(b, memoryTask(512 * 1024, 3));
    EXPECT_NEAR(t2 / t1, 2.0, 0.2);
}

TEST(SimCore, ZeroByteMemoryTaskCompletes)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    SimMachine machine(cfg);
    const double seconds = runSingle(machine, memoryTask(0));
    EXPECT_DOUBLE_EQ(seconds, 0.0);
}

TEST(SimCore, ZeroCycleComputeTaskCompletes)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    SimMachine machine(cfg);
    const double seconds = runSingle(machine, computeTask(0));
    EXPECT_DOUBLE_EQ(seconds, 0.0);
}

TEST(SimCore, DemandMissesLengthenComputeTasks)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    SimMachine clean(cfg);
    const std::uint64_t cycles = 280000;
    const double without =
        runSingle(clean, computeTask(cycles, 512 * 1024));
    SimMachine dirty(cfg);
    const double with = runSingle(
        dirty, computeTask(cycles, 512 * 1024), /*miss=*/0.5);
    EXPECT_GT(with, without * 1.3);
}

TEST(SimCore, SmtSiblingSlowsComputeDown)
{
    const auto cfg = MachineConfig::i7_860_2dimm_smt();
    ASSERT_EQ(cfg.contexts(), 8);

    // Alone on the core.
    SimMachine alone(cfg);
    const double solo = runSingle(alone, computeTask(280000));

    // With the sibling context busy: contexts 0 and 4 share core 0
    // (core-major interleaving).
    SimMachine shared(cfg);
    bool first_done = false;
    shared.run(0, computeTask(10'000'000, 0, 7), 0.0,
               [&] { first_done = true; });
    double second_t = 0.0;
    bool second_done = false;
    shared.run(4, computeTask(280000, 0, 8), 0.0, [&] {
        second_done = true;
        second_t = shared.nowSeconds();
    });
    shared.events().run();
    EXPECT_TRUE(first_done && second_done);
    EXPECT_NEAR(second_t / solo, cfg.smt_compute_slowdown, 0.05);
}

TEST(SimCore, DistinctContextsOfOneCoreAreIndependentSlots)
{
    const auto cfg = MachineConfig::i7_860_2dimm_smt();
    SimMachine machine(cfg);
    EXPECT_FALSE(machine.busy(0));
    machine.run(0, computeTask(1000), 0.0, [] {});
    EXPECT_TRUE(machine.busy(0));
    EXPECT_FALSE(machine.busy(4)); // sibling slot still free
    EXPECT_FALSE(machine.busy(1)); // other core free
    machine.events().run();
    EXPECT_FALSE(machine.busy(0));
}

/** Heap allocations made while one memory task of `lines` lines runs
 *  alone on a fresh `config` machine. */
std::uint64_t
allocationsForMemoryTask(const MachineConfig &config, std::uint64_t lines)
{
    SimMachine machine(config);
    const Task task = memoryTask(lines * tt::mem::kLineBytes);
    bool done = false;
    const std::uint64_t before = g_allocations.load();
    machine.run(0, task, 0.0, [&done] { done = true; });
    machine.events().run();
    const std::uint64_t after = g_allocations.load();
    EXPECT_TRUE(done);
    return after - before;
}

TEST(SimCore, MemoryTaskAllocationsDoNotGrowWithLength)
{
    // Every line passes through the event queue, the memory system
    // and a DRAM channel; none of them may allocate per line. Storage
    // they grow once (heap, lane rings, slot pools) is the same for
    // both lengths: the MLP window bounds it. On two channels the
    // lines alternate between them.
    for (const MachineConfig &config :
         {MachineConfig::i7_860_1dimm(), MachineConfig::i7_860_2dimm_smt()}) {
        const std::uint64_t short_task = allocationsForMemoryTask(config, 64);
        const std::uint64_t long_task = allocationsForMemoryTask(config, 4096);
        EXPECT_LE(long_task, short_task)
            << config.mem.channels << " channel(s), 64 lines: "
            << short_task << " allocations, 4096 lines: " << long_task;
    }
}

TEST(SimCoreDeath, DoubleDispatchPanics)
{
    const auto cfg = MachineConfig::i7_860_1dimm();
    SimMachine machine(cfg);
    machine.run(0, computeTask(1000), 0.0, [] {});
    EXPECT_DEATH(machine.run(0, computeTask(1000), 0.0, [] {}),
                 "already running");
}

TEST(MachineConfig, Presets)
{
    const auto one = MachineConfig::i7_860_1dimm();
    EXPECT_EQ(one.cores, 4);
    EXPECT_EQ(one.contexts(), 4);
    EXPECT_EQ(one.mem.channels, 1);

    const auto two = MachineConfig::i7_860_2dimm();
    EXPECT_EQ(two.mem.channels, 2);
    EXPECT_EQ(two.contexts(), 4);

    const auto smt = MachineConfig::i7_860_2dimm_smt();
    EXPECT_EQ(smt.contexts(), 8);
    EXPECT_LT(smt.mlp_per_context, two.mlp_per_context);
}

TEST(MachineConfig, Power7Preset)
{
    const auto p7 = MachineConfig::power7();
    EXPECT_EQ(p7.cores, 8);
    EXPECT_EQ(p7.smt_ways, 4);
    EXPECT_EQ(p7.contexts(), 32);
    EXPECT_EQ(p7.mem.channels, 2);
    EXPECT_GT(p7.mem.llc_bytes, 8ULL * 1024 * 1024);
    // DDR3-1333 channels are faster than the i7's DDR3-1066.
    EXPECT_LT(p7.mem.dram.t_burst,
              MachineConfig::i7_860_1dimm().mem.dram.t_burst);
}

TEST(MachineConfig, PeakBandwidthMatchesPaper)
{
    const auto one = MachineConfig::i7_860_1dimm();
    tt::sim::EventQueue q;
    tt::mem::MemorySystem mem1(q, one.mem);
    // Sec. V: 8.5 GB/s single channel, 17 GB/s for the 2-DIMM rig.
    EXPECT_NEAR(mem1.peakBandwidth(), 8.5e9, 0.2e9);
    tt::mem::MemorySystem mem2(q, MachineConfig::i7_860_2dimm().mem);
    EXPECT_NEAR(mem2.peakBandwidth(), 17.0e9, 0.4e9);
}

} // namespace
