/**
 * @file
 * Streaming health engine: deterministic online detectors over the
 * run's own telemetry, emitting a severity-tagged alert stream.
 *
 * exec::Engine feeds it raw inputs only, and HealthEngine builds two
 * window streams from them:
 *
 *  - *Job windows* close every kHealthWindowJobs admission verdicts
 *    (onJobVerdict: shed or admitted, the admission model's predicted
 *    response against the job's SLO, the model backlog). Arrival
 *    order is plan order on both backends and the verdicts are
 *    functions of the plan alone, so the detectors fed from job
 *    windows — `slo_burn` and `queue_growth` — produce the identical
 *    (rule, edge, window) sequence on host and sim. This is the
 *    cross-backend-tested half of the alert stream.
 *  - *Tick windows* close on the engine's health tick (sim-time on
 *    the simulator; onTick) and carry the deltas of the cumulative
 *    hot-path totals the engine reads there — MTL-gate refusals
 *    and admission attempts, trace events and span records and
 *    their drops — plus the measured-vs-model memory-time sums of
 *    the pairs measured since the last tick (onPairMeasured: T_m
 *    and the MTL it ran under). These feed `gate_saturation`,
 *    `drop_rate` and `model_bound`. They are deterministic under sim
 *    time and best-effort live signals on the host, where the hot
 *    path runs free of the engine clock.
 *
 * onDrain flushes the partial job window and one last tick window.
 * onJobWindow/onTickWindow are the detector core; tests drive them
 * directly.
 *
 * Every detector runs through the same hysteresis: a rule fires
 * after kHealthFireWindows consecutive breaching windows and clears
 * after kHealthClearWindows consecutive healthy ones, so a single
 * noisy window can neither raise nor drop an alert — alerts cannot
 * flap. Fired/cleared edges land in a bounded ring (oldest evicted,
 * counted in alertsDropped()) that the engine exports as
 * Chrome-trace instant events, the `ttstat --alerts` view and the
 * `ttreport` health section. Given a metrics registry, the engine
 * publishes each edge as it happens (`obs.alerts_active.<rule>`,
 * `obs.alerts_fired.<rule>`, `obs.alerts_cleared.<rule>`,
 * `obs.alerts_dropped`) and its own wall-clock cost at drain
 * (`obs.overhead.health_ns`: window closes and ticks, timed in
 * full; a single verdict's few increments are not timed).
 *
 * The class is not thread-safe; exec::Engine drives it under its
 * run mutex, off the lock-free fast path.
 */

#ifndef TT_OBS_HEALTH_HH
#define TT_OBS_HEALTH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tt {
class MetricsRegistry;
}

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

// Detector constants (docs/observability.md section 8 quotes them).

/** Admission verdicts per deterministic job window. */
inline constexpr int kHealthWindowJobs = 16;
/** Consecutive breaching windows before a rule fires. */
inline constexpr int kHealthFireWindows = 2;
/** Consecutive healthy windows before an active rule clears. */
inline constexpr int kHealthClearWindows = 2;
/** Fired/cleared edges retained; the oldest are evicted beyond it. */
inline constexpr std::size_t kHealthAlertCapacity = 1024;

// slo_burn (job windows, critical)
/** SLO attainment target; the miss budget is 1 - target. */
inline constexpr double kSloAttainmentTarget = 0.95;
/** EWMA smoothing of the per-window burn rate. */
inline constexpr double kBurnFastAlpha = 0.5;
inline constexpr double kBurnSlowAlpha = 0.1;
/** Burn-rate trip levels (multiples of the miss budget); both
 *  windows must breach, page-style multiwindow burn alerting. */
inline constexpr double kBurnFastThreshold = 2.0;
inline constexpr double kBurnSlowThreshold = 1.0;

// queue_growth (job windows, warning)
/** Backlog must exceed this for growth to count. */
inline constexpr long kQueueGrowthFloor = 4;

// gate_saturation (tick windows, warning)
/** Refused share of gate admission attempts (folds) that counts as
 *  saturated. */
inline constexpr double kGateFailureRatio = 0.5;
/** Ignore windows with fewer gate admission attempts than this. */
inline constexpr long kGateMinFolds = 16;

// drop_rate (tick windows, warning)
/** Dropped share of the window's records (which include the drops)
 *  that breaches; a window with no records is skipped. */
inline constexpr double kDropRateThreshold = 0.01;

// model_bound (tick windows, critical)
/** Measured memory time may exceed the Sec. IV-C prediction by
 *  this factor before the window breaches. */
inline constexpr double kModelBoundFactor = 2.0;

/**
 * Detector configuration: every rule runs, `model_bound` only with a
 * model fit. The constants above are conservative enough that a
 * healthy closed-loop run emits no alerts; overload runs (deadline
 * storms, arrival bursts against a configured admission fit) trip
 * `slo_burn` within a few windows.
 */
struct HealthConfig
{
    bool enabled = false;

    /** Seconds per hot-path tick window (sim-time on sim); > 0. */
    double tick_seconds = 0.01;

    /** Fitted per-task memory service times (seconds) for
     *  `model_bound`. Zero tml disables the detector; the engine
     *  defaults these from the admission fit when one is
     *  configured. */
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

    long gate_failures = 0; ///< MTL-gate refusals this window
    long gate_folds = 0;    ///< MTL-gate admission attempts this window

    long trace_dropped = 0; ///< trace events past the cap this window
    long span_dropped = 0;  ///< spans past the cap this window
    long records = 0;       ///< trace events + span records this
                            ///< window, dropped ones included

    int pair_samples = 0;    ///< completed pairs this window
    double sum_tm = 0.0;     ///< measured memory seconds
    double sum_bound = 0.0;  ///< model-predicted memory seconds
};

/** Cumulative hot-path totals since run start, read at each tick. */
struct HotPathTotals
{
    long gate_failures = 0;          ///< MTL-gate refusals
    long gate_folds = 0;             ///< MTL-gate admission attempts
    std::uint64_t trace_dropped = 0; ///< trace events past the cap
    std::uint64_t span_dropped = 0;  ///< spans past the cap
    std::uint64_t records = 0;       ///< trace events + span records,
                                     ///< dropped ones included
};

/**
 * The streaming detector set. Feed raw inputs (or, in tests,
 * windows) in order; read the edge ring and per-rule states whenever
 * convenient.
 */
class HealthEngine
{
  public:
    /** `metrics` (optional, not owned, must outlive the engine)
     *  receives the `obs.alerts_*` schema at once, each edge as it
     *  happens, and `obs.overhead.health_ns` at drain. */
    explicit HealthEngine(const HealthConfig &config,
                          MetricsRegistry *metrics = nullptr);

    /**
     * One admission verdict at engine-clock `time`: shed, or admitted
     * with the admission model's `predicted_response` (a predicted
     * miss when it exceeds a positive `slo_seconds`); `backlog` is
     * the model's backlog after the verdict. Every
     * kHealthWindowJobs verdicts close a job window.
     */
    void onJobVerdict(bool shed, double predicted_response,
                      double slo_seconds, long backlog, double time);

    /** One measured pair: memory seconds `tm` under `mtl`, summed
     *  into the open tick window with its model bound
     *  T_ml + mtl * T_ql. A non-finite `tm` is skipped. */
    void onPairMeasured(double tm, int mtl);

    /** Health tick at `time`: close a tick window from the deltas of
     *  `totals` since the previous tick. */
    void onTick(const HotPathTotals &totals, double time);

    /** The run drained at `time`: close the partial job window and a
     *  last tick window, so alerts active at drain are visible, then
     *  publish obs.overhead.health_ns. */
    void onDrain(const HotPathTotals &totals, double time);

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

    /** Inspection view of one rule. */
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

    /** Record and publish one edge. */
    void append(AlertEvent event);

    void closeJobWindow(double time);

    HealthConfig config_;
    MetricsRegistry *metrics_ = nullptr;

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

    // Windows under assembly, and the totals at the previous tick.
    JobWindowSample job_;
    TickWindowSample tick_;
    HotPathTotals prev_totals_;
    /** Wall ns in window closes and ticks. */
    std::uint64_t overhead_ns_ = 0;

    std::vector<AlertEvent> alerts_;
    std::uint64_t alerts_dropped_ = 0;
};

} // namespace tt::obs

#endif // TT_OBS_HEALTH_HH
