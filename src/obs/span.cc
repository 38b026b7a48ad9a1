#include "obs/span.hh"

#include <algorithm>

namespace tt::obs {

const char *
spanOutcomeName(SpanOutcome outcome)
{
    switch (outcome) {
      case SpanOutcome::Completed:
        return "completed";
      case SpanOutcome::DeadlineMiss:
        return "deadline_miss";
      case SpanOutcome::Shed:
        return "shed";
      case SpanOutcome::Failed:
        return "failed";
    }
    return "?";
}

CriticalPath
computeCriticalPath(const JobSpan &span)
{
    CriticalPath cp;
    cp.response = std::max(span.end - span.arrival, 0.0);
    if (span.attempts.empty())
        return cp; // shed before dispatch: nothing to attribute

    // Execution time of the attempts that counted vs the retry tax
    // (failed bodies + the backoff sleep each was granted).
    double exec = 0.0;
    double retry = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t stalled = 0;
    for (const SpanAttempt &attempt : span.attempts) {
        const double body = std::max(attempt.end - attempt.start, 0.0);
        if (attempt.failed) {
            retry += body + attempt.backoff_seconds;
            continue;
        }
        exec += body;
        if (attempt.has_counters) {
            cycles += attempt.counters.cycles;
            stalled += attempt.counters.stalled_cycles;
        }
    }
    exec = std::min(exec, cp.response);
    retry = std::min(retry, cp.response - exec);

    // Split execution into memory-stalled vs compute time using the
    // hw-counter stall share of the successful attempts; without
    // counters everything executing counts as compute.
    double stall_share = 0.0;
    if (cycles > 0)
        stall_share = std::clamp(static_cast<double>(stalled) /
                                     static_cast<double>(cycles),
                                 0.0, 1.0);
    cp.mem_stall = exec * stall_share;
    cp.compute = exec - cp.mem_stall;
    cp.retry_backoff = retry;

    // Everything not executing and not a retry is queueing (ready-
    // queue wait plus inter-task dispatch gaps), so the components
    // sum to the measured response by construction.
    cp.queue_wait =
        std::max(cp.response - exec - retry - cp.admission, 0.0);
    return cp;
}

} // namespace tt::obs
