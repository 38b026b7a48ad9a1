#include "core/dynamic_policy.hh"

#include <cmath>
#include <cstdlib>

#include "core/analytical_model.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace tt::core {

DynamicThrottlePolicy::DynamicThrottlePolicy(int cores, int window,
                                             int initial,
                                             TriggerMode mode,
                                             double ratio_threshold)
    : cores_(cores),
      window_(window),
      mtl_(initial < 0 ? cores : initial),
      mode_(mode),
      ratio_threshold_(ratio_threshold),
      detector_(window, cores),
      reject_limit_(2 * window),
      reenter_after_(window)
{
    tt_assert(cores_ >= 1, "need at least one core");
    tt_assert(window_ >= 1, "monitoring window must be positive");
    tt_assert(mtl_ >= 1 && mtl_ <= cores_, "initial MTL out of range");
    traceMtl(0.0, mtl_);

    MtlDecision d;
    d.reason = DecisionReason::Initial;
    d.to_mtl = mtl_;
    recordDecision(std::move(d));
}

void
DynamicThrottlePolicy::setFaultTolerance(int reject_limit,
                                         int reenter_after)
{
    tt_assert(reject_limit >= 1, "rejection limit must be positive");
    tt_assert(reenter_after >= 1, "re-entry threshold must be positive");
    reject_limit_ = reject_limit;
    reenter_after_ = reenter_after;
}

void
DynamicThrottlePolicy::setIdleBoundHysteresis(int amount)
{
    tt_assert(amount >= 0, "hysteresis must be non-negative");
    idle_bound_hysteresis_ = amount;
}

void
DynamicThrottlePolicy::onPairMeasured(const PairSample &sample)
{
    ++stats_.pairs_observed;

    // Screen before trusting anything in the sample -- even its
    // timestamp. A rejected sample never reaches the detector or the
    // selector; enough of them in a row and the measurements are
    // untrustworthy wholesale, so degrade to the safe static MTL.
    if (!guard_.accept(sample)) {
        ++stats_.samples_rejected;
        countMetric("policy.samples_rejected");
        ++consecutive_rejected_;
        degraded_valid_ = 0;
        if (state_ != State::Degraded &&
            consecutive_rejected_ >= reject_limit_)
            enterDegraded();
        return;
    }
    consecutive_rejected_ = 0;
    last_sample_time_ = sample.end_time;

    if (state_ == State::Degraded) {
        // Hold the safe MTL until measurements look healthy again,
        // then re-enter dynamic selection from scratch.
        if (++degraded_valid_ >= reenter_after_)
            leaveDegraded();
        return;
    }

    if (overload_hold_) {
        // An overload episode pins the MTL: measurements keep being
        // observed (stats, metrics) but neither trigger nor probe --
        // re-selection waits for backpressure to recover.
        return;
    }

    if (state_ == State::Monitor) {
        auto summary = detector_.addSample(sample, mtl_);
        if (!summary)
            return;
        bool triggered = false;
        if (mode_ == TriggerMode::kIdleBound) {
            triggered =
                !accepted_idle_bound_ ||
                std::abs(summary->idle_bound - *accepted_idle_bound_) >
                    idle_bound_hysteresis_;
        } else {
            // Naive criterion: any relative change of the ratio.
            const double ratio =
                summary->tc > 0.0 ? summary->tm / summary->tc : 1e18;
            if (last_ratio_ < 0.0) {
                // First completed window of the run.
                triggered = true;
            } else if (last_ratio_ == 0.0) {
                // A pure-compute window (tm == 0) has no relative
                // scale; fall back to an absolute test so a later
                // memory phase still registers instead of wedging
                // the trigger permanently.
                triggered = ratio > ratio_threshold_;
            } else {
                triggered =
                    std::abs(ratio - last_ratio_) / last_ratio_ >
                    ratio_threshold_;
            }
            last_ratio_ = ratio;
        }
        if (triggered) {
            ++stats_.phase_changes;
            countMetric("policy.phase_changes");
            trigger_window_ = *summary;
            beginSelection();
        }
        return;
    }

    // State::Select -- accumulate the current probe's window. Pairs
    // measured under a pre-probe MTL are rejected as stale and kept
    // out of the probe-overhead accounting (monitor_overhead counts
    // only samples the selection actually consumed).
    if (!probe_mtl_ || sample.mtl != *probe_mtl_) {
        ++stats_.stale_pairs;
        countMetric("policy.stale_pairs");
        return;
    }
    ++stats_.probe_pairs;
    countMetric("policy.probe_pairs");
    probe_tm_acc_ += sample.tm;
    probe_tc_acc_ += sample.tc;
    if (++probe_filled_ < window_)
        return;

    const double denom = static_cast<double>(window_);
    selector_->reportProbe(*probe_mtl_, probe_tm_acc_ / denom,
                           probe_tc_acc_ / denom);
    if (selector_->done())
        finishSelection();
    else
        startProbe();
}

void
DynamicThrottlePolicy::beginSelection()
{
    ++stats_.selections;
    countMetric("policy.selections");
    state_ = State::Select;
    selector_ = std::make_unique<MtlSelector>(cores_);
    if (selector_->done()) {
        // Degenerate single-core machine: nothing to search.
        finishSelection();
        return;
    }
    startProbe();
}

void
DynamicThrottlePolicy::startProbe()
{
    probe_mtl_ = selector_->nextProbe();
    tt_assert(probe_mtl_.has_value(), "probe requested after done");
    probe_filled_ = 0;
    probe_tm_acc_ = 0.0;
    probe_tc_acc_ = 0.0;
    const int prev = mtl_;
    mtl_ = *probe_mtl_;
    traceMtl(last_sample_time_, mtl_);

    MtlDecision d;
    d.reason = DecisionReason::Probe;
    d.time = last_sample_time_;
    d.from_mtl = prev;
    d.to_mtl = mtl_;
    if (trigger_window_) {
        d.window_tm = trigger_window_->tm;
        d.window_tc = trigger_window_->tc;
        d.idle_bound = trigger_window_->idle_bound;
    }
    recordDecision(std::move(d));
}

void
DynamicThrottlePolicy::finishSelection()
{
    MtlSelector::Result res;
    if (cores_ == 1) {
        res.d_mtl = 1;
        res.mtl_no_idle = 1;
    } else {
        res = selector_->result();
    }
    selection_log_.push_back(res);

    const int prev = mtl_;
    mtl_ = res.d_mtl;
    last_selected_mtl_ = res.d_mtl;
    traceMtl(last_sample_time_, mtl_);

    // Audit the selection: candidates, ranks and the model's
    // predicted speedup of the winner over the unthrottled MTL=n.
    // T_mn comes from the probe at n when the search measured it,
    // otherwise from the queuing decomposition fitted across the
    // lowest and highest probed MTLs (T_mb = T_ml + b*T_ql).
    MtlDecision d;
    d.reason = DecisionReason::Select;
    d.time = last_sample_time_;
    d.from_mtl = prev;
    d.to_mtl = mtl_;
    if (trigger_window_) {
        d.window_tm = trigger_window_->tm;
        d.window_tc = trigger_window_->tc;
        d.idle_bound = trigger_window_->idle_bound;
    }
    d.mtl_no_idle = res.mtl_no_idle;
    d.mtl_idle = res.mtl_idle.value_or(0);
    d.rank_no_idle = res.rank_no_idle;
    d.rank_idle = res.rank_idle;
    d.probes_used = res.probes_used;
    d.predicted_speedup = 1.0;
    if (selector_) {
        const auto &tm_probes = selector_->probedTm();
        for (const auto &[mtl, tm] : tm_probes)
            d.probed_mtls.push_back(mtl);
        const auto it_k = tm_probes.find(res.d_mtl);
        if (cores_ > 1 && it_k != tm_probes.end()) {
            double tm_n = it_k->second;
            const auto it_n = tm_probes.find(cores_);
            if (it_n != tm_probes.end()) {
                tm_n = it_n->second;
            } else if (tm_probes.size() >= 2) {
                const auto lo = *tm_probes.begin();
                const auto hi = *tm_probes.rbegin();
                const auto fit = QueuingModel::fit(
                    lo.first, lo.second, hi.first, hi.second);
                if (fit.tmAt(cores_) > 0.0)
                    tm_n = fit.tmAt(cores_);
            }
            const double predicted = AnalyticalModel::speedup(
                it_k->second, tm_n, selector_->probedTc(), res.d_mtl,
                cores_);
            if (predicted > 0.0 && std::isfinite(predicted))
                d.predicted_speedup = predicted;
        }
    }
    recordDecision(std::move(d));
    trigger_window_.reset();

    // Resume monitoring under the new MTL. Accept the boundary the
    // selection just established so the very next window does not
    // spuriously re-trigger.
    accepted_idle_bound_ = res.mtl_no_idle;
    detector_.reset();
    detector_.primeIdleBound(res.mtl_no_idle);

    state_ = State::Monitor;
    selector_.reset();
    probe_mtl_.reset();
}

void
DynamicThrottlePolicy::onBackpressure(double time,
                                      BackpressureState state,
                                      long backlog)
{
    (void)backlog;
    if (!slo_aware_)
        return;

    if (state == BackpressureState::Shed && !overload_hold_) {
        overload_hold_ = true;
        countMetric("policy.overload_entries");
        if (metrics_)
            metrics_->set("policy.overload", 1.0);

        // Pin the throughput-optimal MTL for the drain: the last
        // selected D-MTL if one exists, the unthrottled n when
        // overload hit mid-probe before any selection, the current
        // MTL otherwise. Degraded mode already holds the safe n.
        int target = mtl_;
        if (state_ != State::Degraded) {
            if (last_selected_mtl_ > 0)
                target = last_selected_mtl_;
            else if (state_ == State::Select)
                target = cores_;
        }

        MtlDecision d;
        d.reason = DecisionReason::Overload;
        d.time = time;
        d.from_mtl = mtl_;
        d.to_mtl = target;
        d.degraded = state_ == State::Degraded;

        if (state_ == State::Select) {
            // Abandon the in-flight selection: its remaining probes
            // would throttle the drain we are trying to maximize.
            selector_.reset();
            probe_mtl_.reset();
            trigger_window_.reset();
            state_ = State::Monitor;
        }
        if (state_ != State::Degraded) {
            mtl_ = target;
            traceMtl(time, mtl_);
        }
        recordDecision(std::move(d));
        return;
    }

    if (state == BackpressureState::Accept && overload_hold_) {
        overload_hold_ = false;
        if (metrics_)
            metrics_->set("policy.overload", 0.0);

        MtlDecision d;
        d.reason = DecisionReason::Reenter;
        d.time = time;
        d.from_mtl = mtl_;
        d.to_mtl = mtl_;
        d.degraded = state_ == State::Degraded;
        recordDecision(std::move(d));

        // The post-burst load regime may differ from the one the
        // pinned MTL was selected for: restart phase detection so
        // the next completed window re-selects.
        if (state_ != State::Degraded) {
            detector_.reset();
            accepted_idle_bound_.reset();
            last_ratio_ = -1.0;
        }
    }
}

void
DynamicThrottlePolicy::enterDegraded()
{
    ++stats_.fallbacks;
    countMetric("policy.fallbacks");
    if (metrics_)
        metrics_->set("policy.degraded", 1.0);
    state_ = State::Degraded;
    degraded_valid_ = 0;

    MtlDecision d;
    d.reason = DecisionReason::Degrade;
    d.time = last_sample_time_;
    d.from_mtl = mtl_;
    d.to_mtl = cores_;
    d.idle_bound = accepted_idle_bound_.value_or(0);
    d.degraded = true;

    // Abandon any in-flight selection: its probe measurements are
    // tainted by the same corruption that triggered the fallback.
    selector_.reset();
    probe_mtl_.reset();
    trigger_window_.reset();
    detector_.reset();
    accepted_idle_bound_.reset();
    last_ratio_ = -1.0;

    // The safe static MTL is the conventional, unthrottled schedule:
    // it forfeits the paper's speedup but can never corrupt the
    // schedule the way a garbage-driven D-MTL could.
    mtl_ = cores_;
    traceMtl(last_sample_time_, mtl_);
    recordDecision(std::move(d));
}

void
DynamicThrottlePolicy::leaveDegraded()
{
    if (metrics_)
        metrics_->set("policy.degraded", 0.0);
    state_ = State::Monitor;
    degraded_valid_ = 0;
    // With no accepted IdleBound the next completed window counts as
    // a phase change, which re-runs MTL selection -- the periodic
    // re-entry into dynamic mode.
    detector_.reset();
    accepted_idle_bound_.reset();
    last_ratio_ = -1.0;

    MtlDecision d;
    d.reason = DecisionReason::Reenter;
    d.time = last_sample_time_;
    d.from_mtl = mtl_;
    d.to_mtl = mtl_;
    recordDecision(std::move(d));
}

} // namespace tt::core
