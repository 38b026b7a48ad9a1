#include "cpu/machine_config.hh"

namespace tt::cpu {

MachineConfig
MachineConfig::i7_860_1dimm()
{
    MachineConfig config;
    config.cores = 4;
    config.smt_ways = 1;
    config.mem.channels = 1;
    return config;
}

MachineConfig
MachineConfig::i7_860_2dimm()
{
    MachineConfig config = i7_860_1dimm();
    config.mem.channels = 2;
    return config;
}

MachineConfig
MachineConfig::i7_860_2dimm_smt()
{
    MachineConfig config = i7_860_2dimm();
    config.smt_ways = 2;
    // Ten line-fill buffers per core are shared between the two
    // hardware threads; give each context a smaller stream window.
    config.mlp_per_context = 5;
    return config;
}

MachineConfig
MachineConfig::power7()
{
    MachineConfig config;
    config.cores = 8;
    config.smt_ways = 4;
    config.core_ghz = 3.55;
    // Four hardware threads share a core's load-miss queue entries
    // and pipelines.
    config.mlp_per_context = 3;
    config.smt_compute_slowdown = 1.8;
    config.mem.channels = 2;
    config.mem.dram = mem::DramConfig::ddr3_1333();
    config.mem.llc_bytes = 32ULL * 1024 * 1024; // eDRAM L3
    config.mem.llc_resident_bytes = 1024ULL * 1024;
    config.mem.frontend_latency = sim::fromNs(80.0); // deeper uncore
    return config;
}

std::optional<MachineConfig>
MachineConfig::byName(std::string_view name)
{
    if (name == "1dimm")
        return i7_860_1dimm();
    if (name == "2dimm")
        return i7_860_2dimm();
    if (name == "2dimm-smt")
        return i7_860_2dimm_smt();
    if (name == "power7")
        return power7();
    return std::nullopt;
}

} // namespace tt::cpu
