/**
 * @file
 * Deterministic model-driven admission control.
 *
 * The controller decides, per arriving job, whether to ACCEPT it,
 * accept it with a DELAY warning, or SHED it. Crucially, decisions
 * are computed against a *virtual* finish clock -- a small queuing
 * model fed only by the arrival plan and the fitted service estimates
 * (the paper's T_mb = T_ml + b*T_ql decomposition, Sec. IV-C) --
 * never against live execution state. Real completions race with
 * arrivals differently on host wall-clock and sim time; the virtual
 * clock sees the same sequence on both, so a seeded overload scenario
 * sheds the exact same jobs on either backend.
 *
 * The model: `servers` parallel service slots (the expected MTL --
 * jobs beyond it queue), per-job service time tml + b*tql + tc where
 * b is the concurrency the job will run at. A job whose predicted
 * response exceeds its SLO is shed *early*, at admission, rather than
 * timing out after consuming resources ("predicted completion past
 * deadline => shed" from the issue; grounded in the slowdown
 * estimation of Subramanian et al.).
 *
 * Degraded mode: the state machine enters SHED on queue overflow or
 * a congested predicted-late shed and then admits only jobs at or
 * above `shed_priority_floor` (shed lowest-priority first). It exits
 * back to ACCEPT only after `hysteresis` consecutive arrivals observe
 * a calm backlog -- one quiet gap does not end an overload episode,
 * so the state cannot flap.
 */

#ifndef TT_LOAD_ADMISSION_HH
#define TT_LOAD_ADMISSION_HH

#include <queue>
#include <vector>

#include "core/audit.hh"
#include "load/arrival.hh"

namespace tt::load {

using core::BackpressureState;

/** Per-job verdict. Delay is an admit (the job runs) with the queue
 *  already past the delay watermark -- open-loop arrivals cannot be
 *  slowed down, so DELAY is a recorded warning, not a pause. */
enum class AdmissionDecision
{
    Accept,
    Delay,
    Shed,
};

/** Why a job was shed (None for admitted jobs). */
enum class ShedReason
{
    None,
    QueueFull,     ///< virtual backlog at queue_cap
    PredictedLate, ///< model predicts completion past the deadline
    LowPriority,   ///< SHED state and priority below the floor
};

/** Stable lower-case name for reports. */
const char *shedReasonName(ShedReason reason);

/** One admission verdict with the model inputs that drove it. */
struct AdmissionOutcome
{
    AdmissionDecision decision = AdmissionDecision::Accept;
    ShedReason shed_reason = ShedReason::None;
    BackpressureState state = BackpressureState::Accept; ///< after
    int backlog = 0; ///< virtual jobs in system at arrival (excl. this)
    double predicted_response = 0.0; ///< model response time, seconds
};

/** Admission knobs; non-positive fields resolve to defaults. */
struct AdmissionConfig
{
    int queue_cap = 64;       ///< virtual backlog bound; at cap -> shed
    int delay_watermark = 0;  ///< admit-as-DELAY above; default cap/2
    int accept_watermark = 0; ///< calm threshold; default cap/4
    int hysteresis = 4;       ///< calm arrivals required to leave SHED
    int servers = 0;          ///< model service slots; default contexts
    int shed_priority_floor = 1; ///< SHED admits priority >= floor

    /// Fitted per-job service estimates (seconds): memory latency
    /// alone, queuing increment per concurrent job, compute tail.
    /// All zero disables the predicted-late criterion; queue-cap and
    /// watermark backpressure still apply.
    double service_tml = 0.0;
    double service_tql = 0.0;
    double service_tc = 0.0;
};

/** Sequential, deterministic admission state machine. Feed it the
 *  jobs of one ArrivalPlan in arrival order. */
class AdmissionController
{
  public:
    /** `contexts` resolves the default server count. */
    AdmissionController(AdmissionConfig config, int contexts);

    /** Decide one arrival and advance the virtual clock. */
    AdmissionOutcome onArrival(const JobSpec &job);

    BackpressureState state() const { return state_; }
    const AdmissionConfig &config() const { return config_; }

    /** Model service time at concurrency min(backlog+1, servers). */
    double predictedService(int backlog) const;

  private:
    AdmissionConfig config_;
    BackpressureState state_ = BackpressureState::Accept;
    int calm_streak_ = 0;

    /// Virtual finish time of every job still in the model's system,
    /// as a min-heap so arrivals prune the departed cheaply.
    std::priority_queue<double, std::vector<double>,
                        std::greater<double>>
        in_system_;
    std::vector<double> server_free_; ///< per-slot next-free times
};

} // namespace tt::load

#endif // TT_LOAD_ADMISSION_HH
