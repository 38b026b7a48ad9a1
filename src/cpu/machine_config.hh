/**
 * @file
 * Simulated machine configurations.
 *
 * The presets model the paper's evaluation platforms (Sec. V / VI-E):
 * an Intel i7-860 "Nehalem" at 2.8 GHz with an 8 MB shared L3,
 * attached to DDR3-1066 over one channel (1-DIMM, 8.5 GB/s), two
 * channels (2-DIMM, 17 GB/s), and the 2-DIMM system with 2-way SMT
 * enabled (8 hardware contexts).
 *
 * Calibration notes (all first-order, documented in EXPERIMENTS.md):
 *  - `mlp_per_context` limits a single stream's outstanding line
 *    fills (Nehalem line-fill buffers, split across SMT threads).
 *    With the ~90 ns contention-free DDR3 round trip (60 ns uncore +
 *    controller front end plus DRAM timing), mlp=6 gives one stream
 *    ~4.2 GB/s, i.e. ~50% of a channel -- which bounds the
 *    T_m4/T_m1 inflation near 1.75x and puts the synthetic peak
 *    speedup at ~1.22x against the paper's measured 1.21x.
 *  - `smt_compute_slowdown` inflates a compute task's duration when
 *    both contexts of its core are busy, reflecting shared pipelines;
 *    the paper notes T_c stops being constant under SMT (Sec. VI-E).
 */

#ifndef TT_CPU_MACHINE_CONFIG_HH
#define TT_CPU_MACHINE_CONFIG_HH

#include <optional>
#include <string_view>

#include "mem/mem_system.hh"

namespace tt::cpu {

/** Full description of a simulated machine. */
struct MachineConfig
{
    int cores = 4;      ///< physical cores
    int smt_ways = 1;   ///< hardware threads per core
    double core_ghz = 2.8;

    /** Outstanding line fills per hardware context (stream window). */
    int mlp_per_context = 6;

    /** Outstanding demand misses while a compute task spills. */
    int demand_mlp = 2;

    /** Compute duration multiplier when the sibling context is busy. */
    double smt_compute_slowdown = 1.4;

    mem::MemSystemConfig mem;

    /** Schedulable hardware contexts (the model's n). */
    int contexts() const { return cores * smt_ways; }

    /** Core cycle period in ticks. */
    sim::Tick cyclePeriod() const { return sim::cyclePeriod(core_ghz); }

    /** Paper's base platform: 4 cores, one DDR3-1066 channel. */
    static MachineConfig i7_860_1dimm();

    /** Fig. 18 left: two channels, SMT off (4 contexts). */
    static MachineConfig i7_860_2dimm();

    /** Fig. 18 right: two channels, SMT on (8 contexts). */
    static MachineConfig i7_860_2dimm_smt();

    /**
     * The paper's stated future work (Sec. VIII): an IBM POWER7-class
     * machine with "substantially more hardware threads" -- 8 cores x
     * 4-way SMT = 32 contexts at 3.55 GHz, a 32 MB L3 and two
     * DDR3-1333 channels. Used by bench_ext_power7.
     */
    static MachineConfig power7();

    /**
     * The preset a tool's `--machine` flag names: "1dimm", "2dimm",
     * "2dimm-smt" or "power7"; nullopt for any other name.
     */
    static std::optional<MachineConfig> byName(std::string_view name);
};

} // namespace tt::cpu

#endif // TT_CPU_MACHINE_CONFIG_HH
