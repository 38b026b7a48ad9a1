/**
 * @file
 * The benchmark's workload interface and the per-layer metric table.
 *
 * A workload builds its inputs from the seed in setup() (timed as
 * set-up), then runs one fixed unit of work per runPass(). main.cc
 * repeats passes for the requested time, checks every operation, and
 * asks the workload for its own figures and, after traced passes,
 * its per-layer numbers.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "report.hh"
#include "span_log.hh"

namespace pb {

/** Host time of one program run within a pass. */
struct RunTiming
{
    double wall_s = 0.0; ///< host wall time inside the program
    long attempts = 0;   ///< task attempts it executed
    bool in_rate = true; ///< counts toward attempts_per_s
};

/** One execution of a workload's fixed work. */
struct Pass
{
    bool traced = false;
    /** Every program run of the pass, in a fixed order. */
    std::vector<RunTiming> runs;
    long ops = 0;                ///< operations attempted
    /** Operations that failed a check the workload made itself;
     *  fingerprinted operations report failure through `ok` instead. */
    long failed = 0;
    std::vector<std::string> errors; ///< why operations failed
    /** Simulated outcome per operation, compared against goldens and
     *  across passes (empty for host runs). */
    std::vector<Fingerprint> prints;
};

/** What main.cc hands a workload for its per-layer numbers. */
struct TraceSummary
{
    int traced_passes = 0;
    std::array<SpanTotals, kSpanNameCount> spans{};
};

/** Every per-layer metric, in output order, with its unit. Metrics a
 *  workload does not exercise read 0. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};
extern const std::vector<MetricSpec> kLayerMetrics;

/** Host time of each layer group over the traced passes, ns. */
struct LayerTimes
{
    double exec_in_drive = 0.0; ///< engine work inside the drive loop
    double load = 0.0;          ///< admission decisions
    double obs = 0.0;           ///< program obs surfaces (sinks, ticks)
};

/** Fill the share.* metrics of a single-threaded sim workload from
 *  the traced spans and the layer estimates. */
void simShares(const TraceSummary &trace, const LayerTimes &times,
               LayerValues &out);

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build inputs from options.seed; timed as set-up. */
    virtual void setup(const Options &options) = 0;

    /** Run the fixed work once. */
    virtual Pass runPass(bool traced) = 0;

    /** True when the workload's run timings are reported at the
     *  reference machine speed (see reference.hh); set-up always is. */
    virtual bool scaledToReference() const { return true; }

    /** The workload's own end-to-end figures (pass wall given),
     *  printed as context and reported with the per-layer metrics. */
    virtual void outcomes(double wall_s, LayerValues &out) = 0;

    /** Per-layer numbers after the traced passes; runs the isolated
     *  layer drivers. */
    virtual void layers(const TraceSummary &trace, LayerValues &out) = 0;
};

/** `--find-knee`: sweep sim-open-obs's offered rate, print the knee. */
int findKnee(const Options &options);

std::unique_ptr<Workload> makeSimClosed();
std::unique_ptr<Workload> makeSimOpenObs();
std::unique_ptr<Workload> makeHostDispatch();

} // namespace pb

#endif // PERFBENCH_WORKLOAD_HH
