#include "obs/health.hh"

#include <algorithm>
#include <utility>

namespace tt::obs {

const char *
alertSeverityName(AlertSeverity severity)
{
    switch (severity) {
    case AlertSeverity::Warning:
        return "warning";
    case AlertSeverity::Critical:
        return "critical";
    }
    return "unknown";
}

const char *
alertEdgeName(AlertEdge edge)
{
    switch (edge) {
    case AlertEdge::Fired:
        return "fired";
    case AlertEdge::Cleared:
        return "cleared";
    }
    return "unknown";
}

HealthEngine::HealthEngine(const HealthConfig &config)
    : config_(config)
{
    config_.window_jobs = std::max(1, config_.window_jobs);
    config_.fire_windows = std::max(1, config_.fire_windows);
    config_.clear_windows = std::max(1, config_.clear_windows);
    config_.alert_capacity =
        std::max<std::size_t>(1, config_.alert_capacity);

    slo_burn_ = {"slo_burn", AlertSeverity::Critical,
                 config_.slo_burn_enabled};
    queue_growth_ = {"queue_growth", AlertSeverity::Warning,
                     config_.queue_growth_enabled};
    gate_saturation_ = {"gate_saturation", AlertSeverity::Warning,
                        config_.gate_saturation_enabled};
    drop_rate_ = {"drop_rate", AlertSeverity::Warning,
                  config_.drop_rate_enabled};
    model_bound_ = {"model_bound", AlertSeverity::Critical,
                    config_.model_bound_enabled &&
                        config_.model_tml > 0.0};
}

void
HealthEngine::evaluate(Rule &rule, bool breach, std::uint64_t window,
                       double observed, double threshold, double time)
{
    if (!rule.enabled)
        return;
    if (breach) {
        ++rule.breach_streak;
        rule.healthy_streak = 0;
        if (!rule.active &&
            rule.breach_streak >= config_.fire_windows) {
            rule.active = true;
            ++rule.fired;
            append({rule.id, rule.severity, AlertEdge::Fired, window,
                    observed, threshold, time});
        }
    } else {
        ++rule.healthy_streak;
        rule.breach_streak = 0;
        if (rule.active &&
            rule.healthy_streak >= config_.clear_windows) {
            rule.active = false;
            ++rule.cleared;
            append({rule.id, rule.severity, AlertEdge::Cleared,
                    window, observed, threshold, time});
        }
    }
}

void
HealthEngine::onJobWindow(const JobWindowSample &sample)
{
    // slo_burn: burn rate = per-window miss share over the miss
    // budget. Sheds and predicted-late admits are both misses in the
    // model's eyes; actual deadline outcomes are wall-clock-dependent
    // on the host and would break cross-backend determinism.
    const double budget =
        std::max(1e-9, 1.0 - config_.attainment_target);
    const int offered = std::max(1, sample.offered);
    const double miss =
        static_cast<double>(sample.shed + sample.predicted_late) /
        static_cast<double>(offered);
    const double burn = miss / budget;
    if (!burn_primed_) {
        burn_fast_ = burn;
        burn_slow_ = burn;
        burn_primed_ = true;
    } else {
        burn_fast_ = config_.burn_fast_alpha * burn +
                     (1.0 - config_.burn_fast_alpha) * burn_fast_;
        burn_slow_ = config_.burn_slow_alpha * burn +
                     (1.0 - config_.burn_slow_alpha) * burn_slow_;
    }
    const bool burning =
        burn_fast_ >= config_.burn_fast_threshold &&
        burn_slow_ >= config_.burn_slow_threshold;
    evaluate(slo_burn_, burning, sample.window, burn_fast_,
             config_.burn_fast_threshold, sample.time);

    // queue_growth: model backlog strictly rising above the floor.
    // The fire hysteresis supplies the "sustained" requirement.
    const bool growing =
        have_prev_backlog_ && sample.backlog > prev_backlog_ &&
        sample.backlog > config_.queue_growth_floor;
    prev_backlog_ = sample.backlog;
    have_prev_backlog_ = true;
    evaluate(queue_growth_, growing, sample.window,
             static_cast<double>(sample.backlog),
             static_cast<double>(config_.queue_growth_floor),
             sample.time);
}

void
HealthEngine::onTickWindow(const TickWindowSample &sample)
{
    // gate_saturation: share of gate folds that ended in rejection.
    const double folds =
        static_cast<double>(std::max<long>(1, sample.gate_folds));
    const double failure_ratio = std::min(
        1.0, static_cast<double>(sample.gate_failures) / folds);
    const bool saturated =
        sample.gate_folds >= config_.gate_min_folds &&
        failure_ratio >= config_.gate_failure_ratio;
    evaluate(gate_saturation_, saturated, sample.window,
             failure_ratio, config_.gate_failure_ratio, sample.time);

    // drop_rate: dropped share of everything offered to the trace
    // ring and span buffer this window.
    const long drops = sample.trace_dropped + sample.span_dropped;
    const double denom = static_cast<double>(
        std::max<long>(1, sample.records + drops));
    const double drop_ratio = static_cast<double>(drops) / denom;
    evaluate(drop_rate_, drop_ratio >= config_.drop_rate_threshold,
             sample.window, drop_ratio, config_.drop_rate_threshold,
             sample.time);

    // model_bound: measured memory seconds against the Sec. IV-C
    // queuing fit T_mb = T_ml + b * T_ql summed over the window's
    // completed pairs, scaled by the allowed factor.
    if (sample.pair_samples > 0 && sample.sum_bound > 0.0) {
        const double limit =
            config_.model_bound_factor * sample.sum_bound;
        evaluate(model_bound_, sample.sum_tm > limit, sample.window,
                 sample.sum_tm, limit, sample.time);
    } else {
        evaluate(model_bound_, false, sample.window, 0.0, 0.0,
                 sample.time);
    }
}

bool
HealthEngine::criticalActive() const
{
    for (const Rule *rule :
         {&slo_burn_, &queue_growth_, &gate_saturation_, &drop_rate_,
          &model_bound_})
        if (rule->active && rule->severity == AlertSeverity::Critical)
            return true;
    return false;
}

std::vector<HealthEngine::RuleState>
HealthEngine::ruleStates() const
{
    std::vector<RuleState> states;
    states.reserve(5);
    for (const Rule *rule :
         {&slo_burn_, &queue_growth_, &gate_saturation_, &drop_rate_,
          &model_bound_})
        states.push_back({rule->id, rule->severity, rule->enabled,
                          rule->active, rule->fired, rule->cleared});
    return states;
}

void
HealthEngine::append(AlertEvent event)
{
    if (alerts_.size() >= config_.alert_capacity) {
        alerts_.erase(alerts_.begin());
        ++alerts_dropped_;
    }
    alerts_.push_back(std::move(event));
}

} // namespace tt::obs
