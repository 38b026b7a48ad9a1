#include "reference.hh"

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>

#include "report.hh"

namespace pb {

namespace {

std::vector<double> samples;
std::uint64_t checksum = 0; ///< keeps the kernel's result live

/** One fixed run of the reference kernel; returns its checksum. */
std::uint64_t
kernel()
{
    using Event = std::pair<std::uint64_t, std::uint64_t>; // (tick, payload)
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
    std::uint64_t state = 1;
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < 32; ++i)
        heap.push({i, i});
    for (int step = 0; step < 40000; ++step) {
        const Event event = heap.top();
        heap.pop();
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        const std::function<void()> handler = [&sum, event] {
            sum += event.second;
        };
        handler();
        heap.push({event.first + (state & 1023), state & 63});
    }
    return sum;
}

} // namespace

void
sampleReference()
{
    const double t0 = wallSeconds();
    checksum += kernel();
    samples.push_back(wallSeconds() - t0);
}

double
referenceSlowdown()
{
    return samples.empty() ? 1.0 : median(samples) / kReferenceNominalSeconds;
}

} // namespace pb
