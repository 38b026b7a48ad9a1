/**
 * @file
 * Shared harness code for the figure/table regenerators: run one
 * workload under the paper's four schedulers (conventional, offline
 * exhaustive, dynamic throttling, online exhaustive) and collect the
 * numbers every figure reports.
 */

#ifndef TT_BENCH_BENCH_COMMON_HH
#define TT_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/dynamic_policy.hh"
#include "core/online_exhaustive_policy.hh"
#include "core/policy.hh"
#include "cpu/machine_config.hh"
#include "simrt/sim_runtime.hh"
#include "stream/task_graph.hh"
#include "util/json.hh"

namespace tt::bench {

/**
 * Machine-readable results emitter for the figure regenerators.
 *
 * Every bench binary accepts `--json-out [FILE]`; when the flag is
 * present the bench writes, alongside its human-readable tables, one
 * JSON document of the form
 *
 *   {"bench": "<name>",
 *    "config": {"knob": value, ...},
 *    "results": [{"key": value, ...}, ...]}
 *
 * FILE defaults to BENCH_<name>.json in the working directory, so CI
 * can collect the artefacts with one glob. Construct one at the top
 * of main(), call parseArgs(), record the effective knob settings
 * with config(), append one flat row per measured point with
 * beginRow()/value(), and finish with write() -- a no-op unless the
 * flag was given, so the default text-only behaviour is unchanged.
 */
class BenchJson
{
  public:
    explicit BenchJson(const std::string &name) : name_(name) {}

    /**
     * Parse the bench command line (benches are otherwise configured
     * through environment knobs, so `--json-out [FILE]` and `--help`
     * are the only arguments). Returns false, after printing usage,
     * on anything it does not recognise.
     */
    bool parseArgs(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--json-out") {
                enabled_ = true;
                if (i + 1 < argc && argv[i + 1][0] != '-')
                    path_ = argv[++i];
            } else if (arg.rfind("--json-out=", 0) == 0) {
                enabled_ = true;
                path_ = arg.substr(std::string("--json-out=").size());
            } else {
                std::fprintf(stderr,
                             "usage: %s [--json-out [FILE]]\n"
                             "  (default FILE: %s; other settings "
                             "come from env knobs, see the header "
                             "comment)\n",
                             argv[0], defaultPath().c_str());
                return false;
            }
        }
        if (enabled_ && path_.empty())
            path_ = defaultPath();
        return true;
    }

    bool enabled() const { return enabled_; }

    /** Record one configuration knob (numeric or string). */
    void config(const std::string &key, double v)
    {
        appendField(config_, key, numberLiteral(v));
    }
    void config(const std::string &key, const std::string &v)
    {
        appendField(config_, key, json::quote(v));
    }

    /** Start the next result row. */
    void beginRow() { rows_.emplace_back(); }

    /** Add one field to the current row (beginRow() first). */
    void value(const std::string &key, double v)
    {
        appendField(rows_.back(), key, numberLiteral(v));
    }
    void value(const std::string &key, const std::string &v)
    {
        appendField(rows_.back(), key, json::quote(v));
    }

    /**
     * Write the document when enabled; returns false (with a
     * message on stderr) if the file cannot be written.
     */
    bool write() const
    {
        if (!enabled_)
            return true;
        std::ofstream out(path_);
        if (out) {
            out << "{\"bench\": " << json::quote(name_)
                << ",\n \"config\": {" << config_
                << "},\n \"results\": [";
            for (std::size_t i = 0; i < rows_.size(); ++i)
                out << (i > 0 ? ",\n   {" : "\n   {") << rows_[i]
                    << "}";
            out << "\n ]}\n";
            out.flush();
        }
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n", path_.c_str());
            return false;
        }
        std::printf("bench json      %10s\n", path_.c_str());
        return true;
    }

  private:
    std::string defaultPath() const
    {
        return "BENCH_" + name_ + ".json";
    }

    static std::string numberLiteral(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.12g", v);
        return buf;
    }

    static void appendField(std::string &dst, const std::string &key,
                            const std::string &literal)
    {
        if (!dst.empty())
            dst += ", ";
        dst += json::quote(key) + ": " + literal;
    }

    std::string name_;
    bool enabled_ = false;
    std::string path_;
    std::string config_;
    std::vector<std::string> rows_;
};

/** One workload's results under all four schedulers. */
struct PolicyComparison
{
    double conventional_seconds = 0.0;

    double offline_seconds = 0.0;
    int offline_mtl = 0;

    double dynamic_seconds = 0.0;
    int dynamic_final_mtl = 0;
    double dynamic_probe_fraction = 0.0;
    long dynamic_selections = 0;

    double online_seconds = 0.0;
    int online_final_mtl = 0;
    double online_probe_fraction = 0.0;

    double offlineSpeedup() const
    {
        return conventional_seconds / offline_seconds;
    }
    double dynamicSpeedup() const
    {
        return conventional_seconds / dynamic_seconds;
    }
    double onlineSpeedup() const
    {
        return conventional_seconds / online_seconds;
    }
};

/**
 * Run `graph` under all four schedulers on fresh machines built from
 * `config`. `w_dynamic` / `w_online` are the monitoring windows (the
 * paper reports each policy at its best W).
 */
inline PolicyComparison
comparePolicies(const cpu::MachineConfig &config,
                const stream::TaskGraph &graph, int w_dynamic,
                int w_online)
{
    PolicyComparison cmp;
    const int n = config.contexts();

    core::ConventionalPolicy conventional(n);
    cmp.conventional_seconds =
        simrt::runOnce(config, graph, conventional).seconds;

    const auto offline = simrt::offlineExhaustiveSearch(config, graph);
    cmp.offline_seconds = offline.best_seconds;
    cmp.offline_mtl = offline.best_mtl;

    core::DynamicThrottlePolicy dynamic(n, w_dynamic);
    const auto dyn = simrt::runOnce(config, graph, dynamic);
    cmp.dynamic_seconds = dyn.seconds;
    cmp.dynamic_final_mtl =
        dyn.mtl_trace.empty() ? n : dyn.mtl_trace.back().second;
    cmp.dynamic_probe_fraction = dyn.monitor_overhead;
    cmp.dynamic_selections = dyn.policy_stats.selections;

    core::OnlineExhaustivePolicy online(n, w_online);
    const auto onl = simrt::runOnce(config, graph, online);
    cmp.online_seconds = onl.seconds;
    cmp.online_final_mtl =
        onl.mtl_trace.empty() ? n : onl.mtl_trace.back().second;
    cmp.online_probe_fraction = onl.monitor_overhead;

    return cmp;
}

/** Append one PolicyComparison to `out` as a labelled result row. */
inline void
addComparisonRow(BenchJson &out, const std::string &label,
                 const PolicyComparison &cmp)
{
    out.beginRow();
    out.value("workload", label);
    out.value("conventional_s", cmp.conventional_seconds);
    out.value("offline_s", cmp.offline_seconds);
    out.value("offline_mtl", cmp.offline_mtl);
    out.value("offline_speedup", cmp.offlineSpeedup());
    out.value("dynamic_s", cmp.dynamic_seconds);
    out.value("dynamic_final_mtl", cmp.dynamic_final_mtl);
    out.value("dynamic_probe_fraction", cmp.dynamic_probe_fraction);
    out.value("dynamic_speedup", cmp.dynamicSpeedup());
    out.value("online_s", cmp.online_seconds);
    out.value("online_final_mtl", cmp.online_final_mtl);
    out.value("online_probe_fraction", cmp.online_probe_fraction);
    out.value("online_speedup", cmp.onlineSpeedup());
}

} // namespace tt::bench

#endif // TT_BENCH_BENCH_COMMON_HH
