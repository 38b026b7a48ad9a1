/**
 * @file
 * The paper's run-time memory thread throttling mechanism (Sec. IV,
 * Fig. 6): phase change detection feeding pruned MTL selection.
 *
 * Operation alternates between two states:
 *  - MONITOR: execute under the currently selected MTL while the
 *    PhaseDetector averages W task pairs; when the resulting
 *    IdleBound differs from the previous window's, a phase change is
 *    declared;
 *  - SELECT: drive the MtlSelector's binary search, temporarily
 *    switching the enforced MTL to each probe point and averaging W
 *    pairs there, until D-MTL is decided and applied.
 *
 * The very first completed window always counts as a phase change,
 * which gives the mechanism its initial MTL decision.
 */

#ifndef TT_CORE_DYNAMIC_POLICY_HH
#define TT_CORE_DYNAMIC_POLICY_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mtl_selector.hh"
#include "core/phase_detector.hh"
#include "core/policy.hh"
#include "core/sample_guard.hh"

namespace tt::core {

/** Dynamic memory-thread-throttling policy (D-MTL). */
class DynamicThrottlePolicy : public SchedulingPolicy
{
  public:
    /**
     * What counts as a phase change (Sec. IV-B).
     *
     * kIdleBound is the paper's mechanism: re-select only when the
     * model's core-idle behaviour flips. kRatioChange is the naive
     * strawman the paper argues against -- "triggering MTL selection
     * as long as the memory-to-compute ratio changes" -- kept as an
     * ablation (see bench_ablation_selection).
     */
    enum class TriggerMode { kIdleBound, kRatioChange };

    /**
     * @param cores   n, hardware contexts the runtime schedules on
     * @param window  W, pairs averaged per estimate (paper Sec. VI-C)
     * @param initial starting MTL; defaults to n (the conventional,
     *                unthrottled schedule) as the paper's mechanism
     *                begins interference-oblivious
     * @param mode    phase-change criterion (ablation hook)
     * @param ratio_threshold relative T_m/T_c change that counts as
     *                "the ratio changed" in kRatioChange mode
     */
    DynamicThrottlePolicy(int cores, int window, int initial = -1,
                          TriggerMode mode = TriggerMode::kIdleBound,
                          double ratio_threshold = 0.05);

    /**
     * Scalability extension (not in the paper): re-select only when
     * the observed IdleBound differs from the accepted one by more
     * than `amount`. With many hardware contexts the closed-form
     * IdleBound ceil(n*T_m/(T_m+T_c)) becomes fine-grained and
     * measurement noise flips it by +-1, which trips the paper's
     * exact-mismatch trigger again and again; bench_ext_power7 shows
     * 5 selections (16.41% of pairs probing) at n=32, and 2 (3.91%)
     * with one step of hysteresis.
     */
    void setIdleBoundHysteresis(int amount);

    /**
     * Fault-tolerance knobs (robustness extension, not in the
     * paper). Samples failing the SampleGuard (non-finite, negative
     * or extreme-outlier durations) are dropped and counted as
     * `policy.samples_rejected`. After `reject_limit` consecutive
     * rejections -- i.e. repeated measurement windows made of
     * garbage -- the policy *degrades*: it abandons any in-flight
     * selection and pins the MTL to the safe static value (the
     * conventional, unthrottled n), because acting on corrupt
     * measurements is worse than not throttling. Once
     * `reenter_after` consecutive valid samples arrive while
     * degraded, it re-enters dynamic selection from scratch.
     *
     * Defaults: reject_limit = 2 * window, reenter_after = window.
     */
    void setFaultTolerance(int reject_limit, int reenter_after);

    /** True while degraded to the safe static MTL. */
    bool degraded() const override { return state_ == State::Degraded; }

    /**
     * SLO-aware mode (robustness extension): react to admission
     * backpressure. On entering SHED the policy abandons any
     * in-flight probing and pins the throughput-optimal MTL -- the
     * last selected D-MTL, or the unthrottled n before a first
     * selection -- because probing during overload both sheds more
     * jobs and inflates tail latency; this maximizes admitted
     * goodput while the controller enforces deadline attainment by
     * shedding. The transition is audited with the `overload`
     * reason. When backpressure recovers to ACCEPT, a `reenter`
     * record is written and normal phase-adaptive selection resumes
     * from scratch (the post-burst load regime may differ).
     */
    void setSloAware(bool on = true) { slo_aware_ = on; }

    /** True while MTL selection is pinned by an overload episode. */
    bool overloadHold() const { return overload_hold_; }

    void onBackpressure(double time, BackpressureState state,
                        long backlog) override;

    std::string name() const override { return "dynamic-throttle"; }
    int currentMtl() const override { return mtl_; }
    void onPairMeasured(const PairSample &sample) override;

    /** All MTL-selection outcomes, in order (for the reports). */
    const std::vector<MtlSelector::Result> &
    selections() const
    {
        return selection_log_;
    }

    int window() const { return window_; }
    int cores() const { return cores_; }

  private:
    void beginSelection();
    void finishSelection();
    void startProbe();
    void enterDegraded();
    void leaveDegraded();

    enum class State { Monitor, Select, Degraded };

    int cores_;
    int window_;
    int mtl_;
    TriggerMode mode_;
    double ratio_threshold_;
    int idle_bound_hysteresis_ = 0;
    std::optional<int> accepted_idle_bound_;
    double last_ratio_ = -1.0;
    State state_ = State::Monitor;
    PhaseDetector detector_;

    /** Window whose measurements triggered the in-flight selection. */
    std::optional<WindowSummary> trigger_window_;

    // SLO-aware overload reaction (onBackpressure).
    bool slo_aware_ = false;
    bool overload_hold_ = false;
    int last_selected_mtl_ = 0; ///< 0 until a selection completed

    // Fault tolerance: sample screening and graceful degradation.
    SampleGuard guard_;
    int reject_limit_;
    int reenter_after_;
    int consecutive_rejected_ = 0;
    int degraded_valid_ = 0;

    // SELECT-state machinery.
    std::unique_ptr<MtlSelector> selector_;
    std::optional<int> probe_mtl_;
    int probe_filled_ = 0;
    double probe_tm_acc_ = 0.0;
    double probe_tc_acc_ = 0.0;
    double last_sample_time_ = 0.0;

    std::vector<MtlSelector::Result> selection_log_;
};

} // namespace tt::core

#endif // TT_CORE_DYNAMIC_POLICY_HH
