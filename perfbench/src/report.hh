/**
 * @file
 * Shared pieces of the benchmark: command-line options, the metric
 * sink that prints the result line, run fingerprints compared
 * against goldens and across passes, and small statistics helpers.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/engine.hh"
#include "mem/dram_channel.hh"

namespace pb {

/** The seed the goldens were recorded for. */
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    bool record_goldens = false;
    bool find_knee = false;
    // Relative to the repository root, the working directory.
    std::string goldens_dir = "perfbench/goldens";
    std::string out_dir = ".bench_out";
};

/** Ordered metric sink; prints a table and the JSON result line. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const std::string &unit);

    /** Human-readable lines, one per metric, then the result line. */
    void print(bool correct, long attempted, long failed) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/**
 * Exact record of one simulated operation's outcome: `key` names the
 * operation (stable across runs), `value` lists every simulated
 * statistic formatted with all its digits. Two runs of the same
 * operation agree iff their values are equal strings.
 */
struct Fingerprint
{
    std::string key;
    std::string value;
    bool ok = true; ///< false when the run failed or broke its schedule
};

/** Simulated statistics of one run: makespan, MTL choices, samples,
 *  DRAM totals and, on open-loop runs, the shed set and response
 *  percentiles. */
std::string simOutcome(const tt::exec::RunResult &r,
                       const tt::mem::ChannelStats &dram,
                       std::uint64_t events);

/** Per-layer values by metric name. */
using LayerValues = std::map<std::string, double>;

/** Goldens of one workload, keyed by Fingerprint::key. */
using Goldens = std::map<std::string, std::string>;

/** Read `<dir>/<workload>.tsv`; empty when absent. */
Goldens loadGoldens(const std::string &dir, const std::string &workload);

/** Write the fingerprints as `<dir>/<workload>.tsv`. */
bool saveGoldens(const std::string &dir, const std::string &workload,
                 const std::vector<Fingerprint> &prints);

double median(std::vector<double> xs);

/** Nearest-rank quantile, q in [0, 1]; 0 for an empty set. */
double quantile(std::vector<double> xs, double q);

double geomean(const std::vector<double> &xs);

/** Host wall clock, seconds. */
double wallSeconds();

/** Peak resident set of this process, MB. */
double peakRssMb();

/** splitmix64 step, for deriving per-workload values from a seed. */
std::uint64_t mixSeed(std::uint64_t x);

} // namespace pb

#endif // PERFBENCH_REPORT_HH
