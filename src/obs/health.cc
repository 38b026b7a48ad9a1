#include "obs/health.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/stats.hh"

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

HealthEngine::HealthEngine(const HealthConfig &config,
                           MetricsRegistry *metrics)
    : config_(config), metrics_(metrics)
{
    slo_burn_ = {"slo_burn", AlertSeverity::Critical, true};
    queue_growth_ = {"queue_growth", AlertSeverity::Warning, true};
    gate_saturation_ = {"gate_saturation", AlertSeverity::Warning, true};
    drop_rate_ = {"drop_rate", AlertSeverity::Warning, true};
    model_bound_ = {"model_bound", AlertSeverity::Critical,
                    config_.model_tml > 0.0};

    if (metrics_ == nullptr)
        return;
    // The full schema up front, fired or not; append() then moves it
    // on every edge.
    for (const RuleState &state : ruleStates()) {
        const std::string rule(state.rule);
        metrics_->set("obs.alerts_active." + rule, 0.0);
        metrics_->add("obs.alerts_fired." + rule, 0);
        metrics_->add("obs.alerts_cleared." + rule, 0);
    }
    metrics_->add("obs.alerts_dropped", 0);
}

void
HealthEngine::onJobVerdict(bool shed, double predicted_response,
                           double slo_seconds, long backlog,
                           double time)
{
    // A verdict's few increments cost less than the clock pair that
    // would time them, so only a window close, which runs the
    // detectors, is timed.
    ++job_.offered;
    if (shed) {
        ++job_.shed;
    } else if (slo_seconds > 0.0 && predicted_response > slo_seconds) {
        // Admitted but the admission model already expects it late:
        // a deterministic stand-in for the (wall-clock-dependent)
        // actual deadline outcome, so burn windows agree across
        // backends.
        ++job_.predicted_late;
    }
    job_.backlog = backlog;
    if (job_.offered >= kHealthWindowJobs) {
        const std::uint64_t t0 = wallNanos();
        closeJobWindow(time);
        overhead_ns_ += wallNanos() - t0;
    }
}

void
HealthEngine::closeJobWindow(double time)
{
    job_.time = time;
    onJobWindow(job_);
    job_ = JobWindowSample{.window = job_.window + 1};
}

void
HealthEngine::onPairMeasured(double tm, int mtl)
{
    if (!std::isfinite(tm))
        return;
    // The Sec. IV-C queuing fit predicts T_mb = T_ml + b * T_ql with b
    // memory tasks sharing the path; the MTL the pair ran under is the
    // upper bound on b, so sum_bound is the most generous prediction
    // the fit allows. Corrupted samples inflate sum_tm and trip the
    // detector -- that is the point.
    ++tick_.pair_samples;
    tick_.sum_tm += std::max(tm, 0.0);
    tick_.sum_bound += config_.model_tml +
                       static_cast<double>(std::max(mtl, 1)) *
                           config_.model_tql;
}

void
HealthEngine::onTick(const HotPathTotals &totals, double time)
{
    const std::uint64_t t0 = wallNanos();
    tick_.time = time;
    tick_.gate_failures = totals.gate_failures - prev_totals_.gate_failures;
    tick_.gate_folds = totals.gate_folds - prev_totals_.gate_folds;
    tick_.trace_dropped = static_cast<long>(totals.trace_dropped -
                                            prev_totals_.trace_dropped);
    tick_.span_dropped = static_cast<long>(totals.span_dropped -
                                           prev_totals_.span_dropped);
    tick_.records =
        static_cast<long>(totals.records - prev_totals_.records);
    prev_totals_ = totals;
    onTickWindow(tick_);
    tick_ = TickWindowSample{.window = tick_.window + 1};
    overhead_ns_ += wallNanos() - t0;
}

void
HealthEngine::onDrain(const HotPathTotals &totals, double time)
{
    // Both backends flush the same partial job window: the plan
    // length is the plan length.
    if (job_.offered > 0)
        closeJobWindow(time);
    onTick(totals, time);
    if (metrics_ != nullptr)
        metrics_->add("obs.overhead.health_ns",
                      static_cast<std::int64_t>(overhead_ns_));
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
            rule.breach_streak >= kHealthFireWindows) {
            rule.active = true;
            ++rule.fired;
            append({rule.id, rule.severity, AlertEdge::Fired, window,
                    observed, threshold, time});
        }
    } else {
        ++rule.healthy_streak;
        rule.breach_streak = 0;
        if (rule.active &&
            rule.healthy_streak >= kHealthClearWindows) {
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
    const double budget = std::max(1e-9, 1.0 - kSloAttainmentTarget);
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
        burn_fast_ = kBurnFastAlpha * burn +
                     (1.0 - kBurnFastAlpha) * burn_fast_;
        burn_slow_ = kBurnSlowAlpha * burn +
                     (1.0 - kBurnSlowAlpha) * burn_slow_;
    }
    const bool burning = burn_fast_ >= kBurnFastThreshold &&
                         burn_slow_ >= kBurnSlowThreshold;
    evaluate(slo_burn_, burning, sample.window, burn_fast_,
             kBurnFastThreshold, sample.time);

    // queue_growth: model backlog strictly rising above the floor.
    // The fire hysteresis supplies the "sustained" requirement.
    const bool growing =
        have_prev_backlog_ && sample.backlog > prev_backlog_ &&
        sample.backlog > kQueueGrowthFloor;
    prev_backlog_ = sample.backlog;
    have_prev_backlog_ = true;
    evaluate(queue_growth_, growing, sample.window,
             static_cast<double>(sample.backlog),
             static_cast<double>(kQueueGrowthFloor),
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
    const bool saturated = sample.gate_folds >= kGateMinFolds &&
                           failure_ratio >= kGateFailureRatio;
    evaluate(gate_saturation_, saturated, sample.window,
             failure_ratio, kGateFailureRatio, sample.time);

    // drop_rate: dropped share of the trace events and spans the run
    // produced this window. A window that produced none says nothing
    // about the drop rate, so it leaves the streaks alone.
    const long drops = sample.trace_dropped + sample.span_dropped;
    if (sample.records + drops > 0) {
        const double drop_ratio =
            static_cast<double>(drops) /
            static_cast<double>(sample.records + drops);
        evaluate(drop_rate_, drop_ratio >= kDropRateThreshold,
                 sample.window, drop_ratio, kDropRateThreshold,
                 sample.time);
    }

    // model_bound: measured memory seconds against the Sec. IV-C
    // queuing fit T_mb = T_ml + b * T_ql summed over the window's
    // completed pairs, scaled by the allowed factor.
    if (sample.pair_samples > 0 && sample.sum_bound > 0.0) {
        const double limit = kModelBoundFactor * sample.sum_bound;
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
    if (metrics_ != nullptr) {
        const bool fired = event.edge == AlertEdge::Fired;
        // The gauge value doubles as the severity encoding (0
        // inactive, 1 warning, 2 critical) so ttstat can gate on
        // "critical active" without parsing rule metadata.
        metrics_->set("obs.alerts_active." + event.rule,
                      fired ? static_cast<double>(event.severity)
                            : 0.0);
        metrics_->add((fired ? "obs.alerts_fired."
                             : "obs.alerts_cleared.") +
                          event.rule,
                      1);
    }
    if (alerts_.size() >= kHealthAlertCapacity) {
        alerts_.erase(alerts_.begin());
        ++alerts_dropped_;
        if (metrics_ != nullptr)
            metrics_->add("obs.alerts_dropped", 1);
    }
    alerts_.push_back(std::move(event));
}

} // namespace tt::obs
