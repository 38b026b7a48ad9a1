/**
 * @file
 * The benchmark's own tracing: wall-clock spans recorded around the
 * calls the benchmark makes into the program's layers (the timing
 * decorators, the engine run, the backend drive loop).
 *
 * Spans nest per thread. Closing a span charges its duration to its
 * parent's child time, so a span's self time is its duration minus
 * the part its children cover. Totals are kept per span name; the
 * first records are kept in memory (capped) and written out once,
 * when the benchmark ends.
 */

#ifndef PERFBENCH_SPAN_LOG_HH
#define PERFBENCH_SPAN_LOG_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/** Every span the benchmark records. */
enum SpanName : std::uint16_t
{
    kSpanRun,            ///< exec::Engine::run, benchmark side
    kSpanDrive,          ///< ExecutionBackend::drive
    kSpanBeginRun,       ///< ExecutionBackend::beginRun
    kSpanStartAttempt,   ///< ExecutionBackend::startAttempt
    kSpanAfter,          ///< ExecutionBackend::after
    kSpanCancel,         ///< ExecutionBackend::cancel
    kSpanTimerFire,      ///< an engine timer callback firing
    kSpanPairCompleted,  ///< ExecutionBackend::pairCompleted
    kSpanRunDrained,     ///< ExecutionBackend::runDrained
    kSpanFinalize,       ///< ExecutionBackend::finalize
    kSpanOnPair,         ///< SchedulingPolicy::onPairMeasured
    kSpanOnBackpressure, ///< SchedulingPolicy::onBackpressure
    kSpanNameCount
};

/** Stable name used in the span dump. */
const char *spanName(SpanName name);

/** Aggregate of every closed span of one name. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
};

/** Nanoseconds on the steady clock. */
std::int64_t nowNs();

/** Open a span on the calling thread. */
void openSpan(SpanName name);

/** Close the innermost open span of the calling thread. */
void closeSpan();

/** Totals over every thread, indexed by SpanName. */
std::array<SpanTotals, kSpanNameCount> spanTotals();

/** Durations of the retained spans named `name`, in ns. */
std::vector<std::int64_t> spanDurations(SpanName name);

/** Write the retained spans as TSV; false when the file fails. */
bool writeSpans(const std::string &path);

/** RAII span. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(SpanName name) { openSpan(name); }
    ~ScopedSpan() { closeSpan(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
};

} // namespace pb

#endif // PERFBENCH_SPAN_LOG_HH
