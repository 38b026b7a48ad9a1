/**
 * @file
 * Streaming health engine: deterministic online detectors over the
 * run's own telemetry, emitting a severity-tagged alert stream.
 *
 * The engine consumes two window streams and keeps no other state:
 *
 *  - *Job windows* close every `window_jobs` offered jobs and carry
 *    only admission-model inputs (sheds, predicted-late admits,
 *    model backlog). Arrival order is plan order on both backends
 *    and the admission verdicts are functions of the plan alone, so
 *    the detectors fed from job windows — `slo_burn` and
 *    `queue_growth` — produce the identical (rule, edge, window)
 *    sequence on host and sim. This is the cross-backend-tested
 *    half of the alert stream.
 *  - *Tick windows* close on the health timer (sim-time on the
 *    simulator) and carry hot-path counter deltas: sharded-gate
 *    admit failures, trace/span drops, and the measured-vs-model
 *    memory-time sums. These feed `gate_saturation`, `drop_rate` and
 *    `model_bound`. They are deterministic under sim time and
 *    best-effort live signals on the host, where the hot path runs
 *    free of the engine clock.
 *
 * Every detector runs through the same hysteresis: a rule fires
 * after `fire_windows` consecutive breaching windows and clears
 * after `clear_windows` consecutive healthy ones, so a single noisy
 * window can neither raise nor drop an alert — alerts cannot flap.
 * Fired/cleared edges land in a bounded ring (oldest evicted,
 * counted in alertsDropped()) that the engine exports as
 * Chrome-trace instant events, OpenMetrics gauges/counters
 * (`obs.alerts_active.<rule>`, `obs.alerts_fired.<rule>`), the
 * `ttstat --alerts` view and the `ttreport` health section.
 *
 * The class is not thread-safe; exec::Engine drives it under its
 * run mutex, off the lock-free fast path.
 */

#ifndef TT_OBS_HEALTH_HH
#define TT_OBS_HEALTH_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tt::obs {

/** Alert severity; the numeric value is the wire encoding of the
 *  `obs.alerts_active.<rule>` gauge (0 = inactive). */
enum class AlertSeverity
{
    Warning = 1,
    Critical = 2,
};

/** Which edge of an alert an event records. */
enum class AlertEdge
{
    Fired,
    Cleared,
};

/** Stable lower-case name ("warning"/"critical"). */
const char *alertSeverityName(AlertSeverity severity);

/** Stable lower-case name ("fired"/"cleared"). */
const char *alertEdgeName(AlertEdge edge);

/** One fired/cleared edge of one detector rule. */
struct AlertEvent
{
    std::string rule; ///< stable rule id ("slo_burn", ...)
    AlertSeverity severity = AlertSeverity::Warning;
    AlertEdge edge = AlertEdge::Fired;

    /** Index of the window that completed the hysteresis streak,
     *  within the rule's own window domain (job or tick). */
    std::uint64_t window = 0;

    double observed = 0.0;  ///< detector signal at the edge window
    double threshold = 0.0; ///< configured trip level
    double time = 0.0;      ///< engine-clock seconds of the edge
};

/**
 * Detector configuration. Defaults are conservative enough that a
 * healthy closed-loop run emits no alerts; overload runs (deadline
 * storms, arrival bursts against a configured admission fit) trip
 * `slo_burn` within a few windows.
 */
struct HealthConfig
{
    bool enabled = false;

    /** Jobs per deterministic job window. */
    int window_jobs = 16;

    /** Seconds per hot-path tick window (sim-time on sim). */
    double tick_seconds = 0.01;

    /** Consecutive breaching windows before a rule fires. */
    int fire_windows = 2;

    /** Consecutive healthy windows before an active rule clears. */
    int clear_windows = 2;

    /** Fired/cleared edges retained; oldest evicted beyond this. */
    std::size_t alert_capacity = 1024;

    // -- slo_burn (job windows, critical) --------------------------
    bool slo_burn_enabled = true;
    /** SLO attainment target; the miss budget is 1 - target. */
    double attainment_target = 0.95;
    /** EWMA smoothing of the per-window burn rate. */
    double burn_fast_alpha = 0.5;
    double burn_slow_alpha = 0.1;
    /** Burn-rate trip levels (multiples of the miss budget); both
     *  windows must breach, page-style multiwindow burn alerting. */
    double burn_fast_threshold = 2.0;
    double burn_slow_threshold = 1.0;

    // -- queue_growth (job windows, warning) -----------------------
    bool queue_growth_enabled = true;
    /** Backlog must exceed this for growth to count. */
    long queue_growth_floor = 4;

    // -- gate_saturation (tick windows, warning) -------------------
    bool gate_saturation_enabled = true;
    /** Admit-failure share of gate folds that counts as saturated. */
    double gate_failure_ratio = 0.5;
    /** Ignore windows with fewer gate folds than this. */
    long gate_min_folds = 16;

    // -- drop_rate (tick windows, warning) -------------------------
    bool drop_rate_enabled = true;
    /** Dropped share of (records + drops) that breaches. */
    double drop_rate_threshold = 0.01;

    // -- model_bound (tick windows, critical) ----------------------
    bool model_bound_enabled = true;
    /** Measured memory time may exceed the Sec. IV-C prediction by
     *  this factor before the window breaches. */
    double model_bound_factor = 2.0;
    /** Fitted per-task memory service times (seconds). Zero tml
     *  disables the detector; the engine defaults these from the
     *  admission fit when one is configured. */
    double model_tml = 0.0;
    double model_tql = 0.0;
};

/** Deterministic admission-side window: every field is a function
 *  of the arrival plan and the admission model alone. */
struct JobWindowSample
{
    std::uint64_t window = 0; ///< job-window index (0-based)
    double time = 0.0;        ///< engine clock at window close
    int offered = 0;          ///< jobs offered in the window
    int shed = 0;             ///< jobs shed at admission
    int predicted_late = 0;   ///< admits with predicted miss
    long backlog = 0;         ///< model backlog at window close
};

/** Hot-path counter deltas for one tick window. */
struct TickWindowSample
{
    std::uint64_t window = 0; ///< tick-window index (0-based)
    double time = 0.0;        ///< engine clock at window close

    long gate_failures = 0; ///< sharded-gate rejects this window
    long gate_folds = 0;    ///< sharded-gate folds this window

    long trace_dropped = 0; ///< trace-ring drops this window
    long span_dropped = 0;  ///< span-buffer drops this window
    long records = 0;       ///< trace + span records this window

    int pair_samples = 0;    ///< completed pairs this window
    double sum_tm = 0.0;     ///< measured memory seconds
    double sum_bound = 0.0;  ///< model-predicted memory seconds
};

/**
 * The streaming detector set. Feed windows in order; read the edge
 * ring and per-rule states whenever convenient.
 */
class HealthEngine
{
  public:
    explicit HealthEngine(const HealthConfig &config);

    /** Evaluate the deterministic job-window detectors. */
    void onJobWindow(const JobWindowSample &sample);

    /** Evaluate the hot-path tick-window detectors. */
    void onTickWindow(const TickWindowSample &sample);

    /** Fired/cleared edges, oldest first (bounded ring). */
    const std::vector<AlertEvent> &alerts() const { return alerts_; }

    /** Edges evicted from the ring. */
    std::uint64_t alertsDropped() const { return alerts_dropped_; }

    /** True while any critical-severity rule is active. */
    bool criticalActive() const;

    /** Export view of one rule for metric publication. */
    struct RuleState
    {
        const char *rule = "";
        AlertSeverity severity = AlertSeverity::Warning;
        bool enabled = false;
        bool active = false;
        std::uint64_t fired = 0;
        std::uint64_t cleared = 0;
    };

    /** All rules, in a fixed order (disabled ones included so the
     *  metric schema is stable across configurations). */
    std::vector<RuleState> ruleStates() const;

    const HealthConfig &config() const { return config_; }

  private:
    struct Rule
    {
        const char *id = "";
        AlertSeverity severity = AlertSeverity::Warning;
        bool enabled = false;
        bool active = false;
        int breach_streak = 0;
        int healthy_streak = 0;
        std::uint64_t fired = 0;
        std::uint64_t cleared = 0;
    };

    /** Run one window through a rule's hysteresis, appending a
     *  fired/cleared edge when a streak completes. */
    void evaluate(Rule &rule, bool breach, std::uint64_t window,
                  double observed, double threshold, double time);

    void append(AlertEvent event);

    HealthConfig config_;

    Rule slo_burn_;
    Rule queue_growth_;
    Rule gate_saturation_;
    Rule drop_rate_;
    Rule model_bound_;

    // slo_burn EWMA state
    double burn_fast_ = 0.0;
    double burn_slow_ = 0.0;
    bool burn_primed_ = false;

    // queue_growth state
    long prev_backlog_ = 0;
    bool have_prev_backlog_ = false;

    std::vector<AlertEvent> alerts_;
    std::uint64_t alerts_dropped_ = 0;
};

} // namespace tt::obs

#endif // TT_OBS_HEALTH_HH
