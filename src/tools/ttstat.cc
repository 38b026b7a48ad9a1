/**
 * @file
 * ttstat: read a live ttsim metrics snapshot file and print the
 * OpenMetrics exposition.
 *
 * The file is whatever `ttsim --live-metrics PATH` writes: a
 * snapshot rewritten atomically (tmp + rename) at each live interval
 * -- simulated time on the simulator, wall time with --host -- and
 * once more after the run, so the same command line works against
 * either backend, during the run or after it:
 *
 *   ttstat /tmp/tt.metrics                  # one snapshot
 *   ttstat --watch --interval-ms 500 PATH   # poll until killed
 *   ttstat --watch --count 10 PATH          # poll 10 times, exit
 *   ttstat --alerts PATH                    # health-alert table only
 *
 * Flags:
 *   --watch          poll repeatedly instead of once
 *   --interval-ms M  delay between polls                  [1000]
 *   --count N        stop --watch after N snapshots (0 = forever)
 *   --alerts         print only the health-alert table (from the
 *                    run's obs_alerts_* series; needs ttsim --health)
 *
 * Exit codes: 0 success, 1 snapshot file missing or unreadable,
 * 2 usage error, 3 a critical health alert was active in the last
 * snapshot (checked in every mode, so scripts can gate on it).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/flags.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--watch] [--interval-ms M] [--count N] "
                 "[--alerts] PATH\n"
                 "PATH is the --live-metrics snapshot file of a ttsim "
                 "run.\n"
                 "exit codes: 0 ok, 1 file unreadable, 2 usage,\n"
                 "            3 critical health alert active\n",
                 argv0);
    return 2;
}

/** Read one snapshot file. */
bool
fetch(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

/** One detector's state scraped from an exposition snapshot. */
struct AlertRow
{
    std::string rule;
    double active = 0.0; ///< 0 quiet / 1 warning / 2 critical
    double fired = 0.0;
    double cleared = 0.0;
};

/**
 * Alert state scraped from one snapshot: the per-rule rows (present
 * only when the run exported obs_alerts_* series, i.e. ran with
 * --health) and the total edges the engine's alert ring evicted.
 */
struct AlertScrape
{
    bool present = false;
    double dropped = 0.0;
    std::vector<AlertRow> rows;

    bool criticalActive() const
    {
        for (const AlertRow &row : rows)
            if (row.active >= 2.0)
                return true;
        return false;
    }
};

/** Find-or-insert the row for `rule`, preserving exposition order. */
AlertRow &
alertRow(AlertScrape &scrape, const std::string &rule)
{
    for (AlertRow &row : scrape.rows)
        if (row.rule == rule)
            return row;
    scrape.rows.push_back({rule, 0.0, 0.0, 0.0});
    return scrape.rows.back();
}

/**
 * Scrape the obs_alerts_* series out of an OpenMetrics snapshot.
 * Sample lines are `name value`; the severity is encoded in the
 * active gauge's value (0 quiet, 1 warning, 2 critical).
 */
AlertScrape
scrapeAlerts(const std::string &text)
{
    static const std::string kActive = "obs_alerts_active_";
    static const std::string kFired = "obs_alerts_fired_";
    static const std::string kCleared = "obs_alerts_cleared_";
    static const std::string kDropped = "obs_alerts_dropped_total";
    static const std::string kTotal = "_total";
    AlertScrape scrape;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line.front() == '#')
            continue;
        const std::size_t space = line.find(' ');
        if (space == std::string::npos)
            continue;
        const std::string name = line.substr(0, space);
        const double value = std::strtod(line.c_str() + space + 1,
                                         nullptr);
        if (name.rfind(kActive, 0) == 0) {
            scrape.present = true;
            alertRow(scrape, name.substr(kActive.size())).active =
                value;
        } else if (name == kDropped) {
            scrape.present = true;
            scrape.dropped = value;
        } else if (name.rfind(kFired, 0) == 0 &&
                   name.size() > kFired.size() + kTotal.size() &&
                   name.compare(name.size() - kTotal.size(),
                                kTotal.size(), kTotal) == 0) {
            scrape.present = true;
            alertRow(scrape,
                     name.substr(kFired.size(),
                                 name.size() - kFired.size() -
                                     kTotal.size()))
                .fired = value;
        } else if (name.rfind(kCleared, 0) == 0 &&
                   name.size() > kCleared.size() + kTotal.size() &&
                   name.compare(name.size() - kTotal.size(),
                                kTotal.size(), kTotal) == 0) {
            scrape.present = true;
            alertRow(scrape,
                     name.substr(kCleared.size(),
                                 name.size() - kCleared.size() -
                                     kTotal.size()))
                .cleared = value;
        }
    }
    return scrape;
}

/** Render one scrape as the --alerts table. */
void
printAlerts(const AlertScrape &scrape)
{
    if (!scrape.present) {
        std::printf("no health data in snapshot (run ttsim with "
                    "--health)\n");
        return;
    }
    std::printf("%-18s %-9s %8s %8s\n", "rule", "state", "fired",
                "cleared");
    for (const AlertRow &row : scrape.rows) {
        const char *state = row.active >= 2.0   ? "CRITICAL"
                            : row.active >= 1.0 ? "warning"
                                                : "ok";
        std::printf("%-18s %-9s %8.0f %8.0f\n", row.rule.c_str(),
                    state, row.fired, row.cleared);
    }
    if (scrape.dropped > 0.0)
        std::printf("(%.0f alert edges dropped by the ring)\n",
                    scrape.dropped);
}

} // namespace

int
main(int argc, char **argv)
{
    tt::Flags flags;
    static const std::vector<std::string> known_flags = {
        "help", "watch", "interval-ms", "count", "alerts",
    };
    // The flag parser reads `--switch value` greedily, so a bare
    // switch directly before PATH (`ttstat --alerts /tmp/tt.om`)
    // would swallow the path. Pin the pure switches to `=1`.
    std::vector<std::string> arg_store(argv, argv + argc);
    std::vector<char *> arg_ptrs;
    for (std::string &arg : arg_store) {
        if (arg == "--help" || arg == "--watch" || arg == "--alerts")
            arg += "=1";
        arg_ptrs.push_back(arg.data());
    }
    argc = static_cast<int>(arg_ptrs.size());
    argv = arg_ptrs.data();
    if (!flags.parse(argc, argv) || !flags.allowOnly(known_flags) ||
        flags.has("help")) {
        if (!flags.error().empty())
            std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        return usage(argv[0]);
    }
    if (flags.positional().size() != 1)
        return usage(argv[0]);
    const std::string path = flags.positional().front();
    const bool watch = flags.getBool("watch");
    const long interval_ms = flags.getInt("interval-ms", 1000);
    const long count = flags.getInt("count", 0);
    if (!flags.error().empty()) {
        std::fprintf(stderr, "error: %s\n", flags.error().c_str());
        return usage(argv[0]);
    }
    if (interval_ms < 1 || count < 0) {
        std::fprintf(stderr,
                     "--interval-ms must be >= 1, --count >= 0\n");
        return 2;
    }

    const bool alerts_only = flags.getBool("alerts");
    long taken = 0;
    bool critical_active = false;
    for (;;) {
        std::string text;
        if (!fetch(path, text))
            return 1;
        // The exit-3 gate reflects the *last* snapshot, so a --watch
        // session that saw an alert fire and clear still exits 0.
        const AlertScrape scrape = scrapeAlerts(text);
        critical_active = scrape.criticalActive();
        if (alerts_only)
            printAlerts(scrape);
        else
            std::fputs(text.c_str(), stdout);
        std::fflush(stdout);
        ++taken;
        if (!watch || (count > 0 && taken >= count))
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
    return critical_active ? 3 : 0;
}
