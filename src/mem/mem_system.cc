#include "mem/mem_system.hh"

#include "util/logging.hh"

namespace tt::mem {

MemorySystem::MemorySystem(sim::EventQueue &events,
                           const MemSystemConfig &config)
    : events_(events), config_(config),
      llc_(config.llc_bytes, config.llc_resident_bytes),
      frontend_lane_(
          events.addLane<MemorySystem, &MemorySystem::returnLine>(this))
{
    tt_assert(config_.channels >= 1, "need at least one channel");
    channels_.reserve(static_cast<std::size_t>(config_.channels));
    for (int c = 0; c < config_.channels; ++c)
        channels_.push_back(
            std::make_unique<DramChannel>(events_, config_.dram));
}

void
MemorySystem::access(std::uint64_t line_addr, bool is_write,
                     sim::Callback on_complete)
{
    const auto n = static_cast<std::uint64_t>(config_.channels);
    const int channel = static_cast<int>(line_addr % n);
    const std::uint64_t local_line = line_addr / n;

    DramRequest request;
    request.line_addr = local_line;
    request.is_write = is_write;
    // The front-end (core -> uncore -> controller and back) adds a
    // constant latency to the round trip; apply it on the return
    // path so channel-level timing stays pure DRAM. The return is
    // scheduled once the DRAM access completes.
    if (on_complete) {
        const std::uint32_t slot = returns_.put(std::move(on_complete));
        request.on_complete = [this, slot] {
            events_.schedule(frontend_lane_,
                             events_.now() + config_.frontend_latency,
                             slot);
        };
    }
    channels_[static_cast<std::size_t>(channel)]->submit(
        std::move(request));
}

void
MemorySystem::returnLine(std::uint32_t slot)
{
    returns_.take(slot)();
}

const DramChannel &
MemorySystem::channel(int index) const
{
    tt_assert(index >= 0 && index < channelCount(),
              "channel index out of range");
    return *channels_[static_cast<std::size_t>(index)];
}

std::uint64_t
MemorySystem::totalAccesses() const
{
    std::uint64_t total = 0;
    for (const auto &channel : channels_)
        total += channel->stats().reads + channel->stats().writes;
    return total;
}

double
MemorySystem::peakBandwidth() const
{
    return config_.dram.peakBandwidth() *
           static_cast<double>(config_.channels);
}

} // namespace tt::mem
