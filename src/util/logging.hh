/**
 * @file
 * Status and error reporting in the spirit of gem5's base/logging.hh.
 *
 * panic()  -- internal invariant violated (a bug in this library);
 *             aborts so a debugger/core dump can capture state.
 * fatal()  -- the caller/user supplied an impossible configuration;
 *             exits with an error code.
 * warn()   -- something is suspicious but execution can continue.
 */

#ifndef TT_UTIL_LOGGING_HH
#define TT_UTIL_LOGGING_HH

#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>

namespace tt {

/**
 * Crash-dump hooks: callbacks invoked (once, in registration order)
 * when the process is about to terminate abnormally -- a tt_panic /
 * tt_fatal / failed tt_assert, or a runtime watchdog firing. Long
 * running components (the runtimes, ttsim) register a hook that
 * flushes their diagnostics -- progress and trace totals, metrics
 * registries -- so a failed run still leaves artefacts. Hooks must be best-effort:
 * they run on the crashing thread while other threads may still be
 * live, and any exception they throw is swallowed.
 */
using CrashDumpHook = std::function<void()>;

/** Register a hook; returns an id for unregisterCrashDumpHook(). */
int registerCrashDumpHook(CrashDumpHook hook);

/** Remove a previously registered hook (no-op on unknown id). */
void unregisterCrashDumpHook(int id);

/**
 * Run every registered hook once. Reentrant calls (e.g. a hook that
 * itself panics) and repeated calls are no-ops, so the process
 * cannot recurse through the crash path.
 */
void runCrashDumpHooks() noexcept;

namespace detail {

/** Compose, print and terminate; shared backend for panic/fatal. */
[[noreturn]] void terminate(const char *kind, const std::string &msg,
                            const char *file, int line, bool do_abort);

/** Print a non-fatal message with a severity prefix. */
void message(const char *kind, const std::string &msg);

/** Fold a list of streamable values into one string. */
template <typename... Args>
std::string
fold(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

} // namespace tt

#define tt_panic(...)                                                       \
    ::tt::detail::terminate("panic", ::tt::detail::fold(__VA_ARGS__),       \
                            __FILE__, __LINE__, true)

#define tt_fatal(...)                                                       \
    ::tt::detail::terminate("fatal", ::tt::detail::fold(__VA_ARGS__),       \
                            __FILE__, __LINE__, false)

#define tt_warn(...)                                                        \
    ::tt::detail::message("warn", ::tt::detail::fold(__VA_ARGS__))

/** Assert-like check that survives NDEBUG builds. */
#define tt_assert(cond, ...)                                                \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::tt::detail::terminate(                                        \
                "panic", "assertion '" #cond "' failed: " +                 \
                ::tt::detail::fold(__VA_ARGS__), __FILE__, __LINE__, true); \
        }                                                                   \
    } while (0)

#endif // TT_UTIL_LOGGING_HH
