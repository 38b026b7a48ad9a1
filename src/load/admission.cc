#include "load/admission.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tt::load {

const char *
shedReasonName(ShedReason reason)
{
    switch (reason) {
      case ShedReason::None:
        return "none";
      case ShedReason::QueueFull:
        return "queue-full";
      case ShedReason::PredictedLate:
        return "predicted-late";
      case ShedReason::LowPriority:
        return "low-priority";
    }
    return "?";
}

AdmissionController::AdmissionController(AdmissionConfig config,
                                         int contexts)
    : config_(config)
{
    tt_assert(contexts >= 1, "need at least one context");
    if (config_.queue_cap <= 0)
        config_.queue_cap = 64;
    if (config_.delay_watermark <= 0)
        config_.delay_watermark = std::max(1, config_.queue_cap / 2);
    if (config_.accept_watermark <= 0)
        config_.accept_watermark = config_.queue_cap / 4;
    if (config_.hysteresis < 1)
        config_.hysteresis = 1;
    if (config_.servers <= 0)
        config_.servers = contexts;
    config_.shed_priority_floor =
        std::max(0, config_.shed_priority_floor);
    tt_assert(config_.accept_watermark <= config_.delay_watermark &&
                  config_.delay_watermark <= config_.queue_cap,
              "watermarks must satisfy accept <= delay <= cap");
    server_free_.assign(static_cast<std::size_t>(config_.servers),
                        0.0);
}

double
AdmissionController::predictedService(int backlog) const
{
    const int b = std::min(backlog + 1, config_.servers);
    return config_.service_tml +
           static_cast<double>(b) * config_.service_tql +
           config_.service_tc;
}

AdmissionOutcome
AdmissionController::onArrival(const JobSpec &job)
{
    const double t = job.arrival_seconds;
    while (!in_system_.empty() && in_system_.top() <= t)
        in_system_.pop();
    const int backlog = static_cast<int>(in_system_.size());

    // Hypothetical placement on the earliest-free virtual server.
    const auto free_slot =
        std::min_element(server_free_.begin(), server_free_.end());
    const double start = std::max(t, *free_slot);

    AdmissionOutcome out;
    out.backlog = backlog;
    out.predicted_response = start + predictedService(backlog) - t;

    // Recovery first: a calm arrival advances the hysteresis streak
    // even when the job itself is about to be priority-shed, so an
    // all-low-priority stream can still leave SHED once drained.
    if (state_ == BackpressureState::Shed) {
        if (backlog <= config_.accept_watermark) {
            if (++calm_streak_ >= config_.hysteresis) {
                state_ = BackpressureState::Accept;
                calm_streak_ = 0;
            }
        } else {
            calm_streak_ = 0;
        }
    }

    ShedReason shed = ShedReason::None;
    if (backlog >= config_.queue_cap)
        shed = ShedReason::QueueFull;
    else if (job.slo_seconds > 0.0 &&
             out.predicted_response > job.slo_seconds)
        shed = ShedReason::PredictedLate;
    else if (state_ == BackpressureState::Shed &&
             job.priority < config_.shed_priority_floor)
        shed = ShedReason::LowPriority;

    if (shed != ShedReason::None) {
        out.decision = AdmissionDecision::Shed;
        out.shed_reason = shed;
        // Queue overflow always declares overload; a predicted-late
        // shed does so only when the queue is already congested, so
        // one isolated tight-deadline job cannot flip the state.
        if (shed == ShedReason::QueueFull ||
            (shed == ShedReason::PredictedLate &&
             backlog >= config_.delay_watermark)) {
            state_ = BackpressureState::Shed;
            calm_streak_ = 0;
        }
        out.state = state_;
        return out;
    }

    // Admit: commit the placement to the virtual clock.
    const double finish = start + predictedService(backlog);
    *free_slot = finish;
    in_system_.push(finish);
    out.decision = backlog >= config_.delay_watermark
                       ? AdmissionDecision::Delay
                       : AdmissionDecision::Accept;
    if (state_ != BackpressureState::Shed)
        state_ = backlog >= config_.delay_watermark
                     ? BackpressureState::Delay
                     : BackpressureState::Accept;
    out.state = state_;
    return out;
}

} // namespace tt::load
