#include "util/env.hh"

#include <cstdlib>

namespace tt {

std::int64_t
envInt(const char *name, std::int64_t fallback)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return fallback;
    char *end = nullptr;
    const long long value = std::strtoll(raw, &end, 10);
    if (end == raw || *end != '\0')
        return fallback;
    return value;
}

double
envDouble(const char *name, double fallback)
{
    const char *raw = std::getenv(name);
    if (!raw || !*raw)
        return fallback;
    char *end = nullptr;
    const double value = std::strtod(raw, &end);
    if (end == raw || *end != '\0')
        return fallback;
    return value;
}

} // namespace tt
