#include "util/logging.hh"

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>

namespace tt {

namespace {
std::mutex &
hookMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::map<int, CrashDumpHook> &
hookMap()
{
    static std::map<int, CrashDumpHook> hooks;
    return hooks;
}

int g_next_hook_id = 1;
std::atomic<bool> g_hooks_running{false};
} // namespace

int
registerCrashDumpHook(CrashDumpHook hook)
{
    std::lock_guard lock(hookMutex());
    const int id = g_next_hook_id++;
    hookMap().emplace(id, std::move(hook));
    return id;
}

void
unregisterCrashDumpHook(int id)
{
    std::lock_guard lock(hookMutex());
    hookMap().erase(id);
}

void
runCrashDumpHooks() noexcept
{
    // One shot: a hook that itself crashes (or two racing crash
    // paths) must not re-enter the dump machinery.
    if (g_hooks_running.exchange(true))
        return;
    // Copy out under the lock, run unlocked: a hook may legitimately
    // call unregisterCrashDumpHook or log through this file.
    std::map<int, CrashDumpHook> hooks;
    {
        std::lock_guard lock(hookMutex());
        hooks = hookMap();
    }
    for (auto &[id, hook] : hooks) {
        (void)id;
        try {
            if (hook)
                hook();
        } catch (...) {
            // Best-effort: keep draining the remaining hooks.
        }
    }
    std::fflush(nullptr);
}

namespace detail {

void
terminate(const char *kind, const std::string &msg, const char *file,
          int line, bool do_abort)
{
    std::fprintf(stderr, "%s: %s (%s:%d)\n", kind, msg.c_str(), file, line);
    std::fflush(stderr);
    // Let running engines / bound metrics registries flush their
    // diagnostics before the process dies, so a failed run still
    // leaves artefacts to debug from.
    runCrashDumpHooks();
    if (do_abort)
        std::abort();
    std::exit(1);
}

void
message(const char *kind, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", kind, msg.c_str());
}

} // namespace detail

} // namespace tt
