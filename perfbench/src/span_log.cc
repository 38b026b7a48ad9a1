#include "span_log.hh"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace pb {

namespace {

/** Spans kept for the dump, over all threads; totals stay exact
 *  beyond. */
constexpr std::size_t kMaxRecords = 1 << 19;

std::atomic<std::size_t> retained{0};

struct Frame
{
    SpanName name;
    std::int64_t start;
    std::int64_t child = 0;
};

struct Record
{
    std::int64_t start;
    std::int64_t end;
    std::int64_t self;
    std::uint16_t name;
    std::uint16_t depth;
};

struct ThreadLog
{
    int id = 0;
    std::vector<Frame> stack;
    std::array<SpanTotals, kSpanNameCount> totals{};
    std::vector<Record> records;
};

std::mutex registry_mutex;
std::vector<std::unique_ptr<ThreadLog>> registry;

ThreadLog &
threadLog()
{
    thread_local ThreadLog *log = nullptr;
    if (log == nullptr) {
        std::lock_guard lock(registry_mutex);
        registry.push_back(std::make_unique<ThreadLog>());
        log = registry.back().get();
        log->id = static_cast<int>(registry.size()) - 1;
    }
    return *log;
}

} // namespace

const char *
spanName(SpanName name)
{
    static const char *const names[kSpanNameCount] = {
        "run",        "drive",          "begin_run",      "start_attempt",
        "after",      "cancel",         "timer_fire",     "pair_completed",
        "run_drained", "finalize",      "on_pair_measured",
        "on_backpressure"};
    return names[name];
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
openSpan(SpanName name)
{
    threadLog().stack.push_back(Frame{name, nowNs()});
}

void
closeSpan()
{
    const std::int64_t end = nowNs();
    ThreadLog &log = threadLog();
    const Frame frame = log.stack.back();
    log.stack.pop_back();
    const std::int64_t duration = end - frame.start;
    const std::int64_t self = duration - frame.child;
    SpanTotals &totals = log.totals[frame.name];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += self;
    if (!log.stack.empty())
        log.stack.back().child += duration;
    if (retained.fetch_add(1, std::memory_order_relaxed) < kMaxRecords)
        log.records.push_back(
            Record{frame.start, end, self, frame.name,
                   static_cast<std::uint16_t>(log.stack.size())});
}

std::array<SpanTotals, kSpanNameCount>
spanTotals()
{
    std::array<SpanTotals, kSpanNameCount> out{};
    std::lock_guard lock(registry_mutex);
    for (const auto &log : registry) {
        for (std::size_t i = 0; i < out.size(); ++i) {
            out[i].count += log->totals[i].count;
            out[i].total_ns += log->totals[i].total_ns;
            out[i].self_ns += log->totals[i].self_ns;
        }
    }
    return out;
}

std::vector<std::int64_t>
spanDurations(SpanName name)
{
    std::vector<std::int64_t> out;
    std::lock_guard lock(registry_mutex);
    for (const auto &log : registry)
        for (const Record &record : log->records)
            if (record.name == name)
                out.push_back(record.end - record.start);
    return out;
}

bool
writeSpans(const std::string &path)
{
    std::ofstream out(path);
    out << "thread\tdepth\tname\tstart_ns\tend_ns\tself_ns\n";
    std::lock_guard lock(registry_mutex);
    for (const auto &log : registry)
        for (const Record &record : log->records)
            out << log->id << '\t' << record.depth << '\t'
                << spanName(static_cast<SpanName>(record.name)) << '\t'
                << record.start << '\t' << record.end << '\t'
                << record.self << '\n';
    return static_cast<bool>(out);
}

} // namespace pb
