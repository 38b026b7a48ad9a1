/**
 * @file
 * Environment-variable knobs for the bench harnesses.
 *
 * Benches honour a handful of env vars (sweep granularity, pair
 * counts) so a user can trade fidelity for wall time without
 * recompiling; these helpers parse them with defaults.
 */

#ifndef TT_UTIL_ENV_HH
#define TT_UTIL_ENV_HH

#include <cstdint>

namespace tt {

/** Read an integer env var; returns `fallback` if unset or invalid. */
std::int64_t envInt(const char *name, std::int64_t fallback);

/** Read a double env var; returns `fallback` if unset or invalid. */
double envDouble(const char *name, double fallback);

} // namespace tt

#endif // TT_UTIL_ENV_HH
