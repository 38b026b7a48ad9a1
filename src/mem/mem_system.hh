/**
 * @file
 * MemorySystem: the facade the simulated cores talk to.
 *
 * Routes line-granular accesses to DDR3 channels (fine-grained line
 * interleaving, as on Nehalem), applies the constant uncore/
 * controller front-end latency to the round trip, and owns the
 * shared-LLC occupancy model.
 */

#ifndef TT_MEM_MEM_SYSTEM_HH
#define TT_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/dram_channel.hh"
#include "mem/dram_config.hh"
#include "mem/llc.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"

namespace tt::mem {

/** Configuration of the whole memory system. */
struct MemSystemConfig
{
    int channels = 1;               ///< 1-DIMM vs 2-DIMM (Fig. 18)
    DramConfig dram = DramConfig::ddr3_1066();
    /** Uncore + controller round-trip latency added to every miss. */
    sim::Tick frontend_latency = sim::fromNs(60.0);
    std::uint64_t llc_bytes = 8ULL * 1024 * 1024; ///< i7-860 L3
    /** LLC bytes pinned by code/stacks/metadata. */
    std::uint64_t llc_resident_bytes = 256ULL * 1024;
};

/** Channel-routing facade with LLC model. */
class MemorySystem
{
  public:
    MemorySystem(sim::EventQueue &events, const MemSystemConfig &config);

    /**
     * Issue one line access that misses the LLC (all DRAM traffic in
     * this model flows through here); `on_complete` (may be null)
     * fires when the data is back at the requesting core.
     */
    void access(std::uint64_t line_addr, bool is_write,
                sim::Callback on_complete);

    SharedLlc &llc() { return llc_; }
    const SharedLlc &llc() const { return llc_; }

    int channelCount() const { return static_cast<int>(channels_.size()); }
    const DramChannel &channel(int index) const;

    /** Sum of reads+writes across channels. */
    std::uint64_t totalAccesses() const;

    /** Peak bandwidth across all channels, bytes/second. */
    double peakBandwidth() const;

    const MemSystemConfig &config() const { return config_; }

  private:
    sim::EventQueue &events_;
    MemSystemConfig config_;
    SharedLlc llc_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    /** Requester callbacks waiting for their DRAM access. */
    sim::CallbackPool returns_;
};

} // namespace tt::mem

#endif // TT_MEM_MEM_SYSTEM_HH
