/**
 * @file
 * Strict parsing of the numeric BPSIM_* environment knobs.
 */

#ifndef BPSIM_COMMON_ENV_HH
#define BPSIM_COMMON_ENV_HH

#include <cstdlib>

namespace bpsim {

/**
 * The value of environment variable @p name when it is a whole
 * positive decimal integer, else 0 (unset, empty, or not wholly a
 * number: "20k" and "1e6" are rejected, not read as 20 and 1).
 */
inline long long
positiveEnv(const char *name)
{
    const char *env = std::getenv(name);
    if (!env || *env == '\0')
        return 0;
    char *end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || v <= 0)
        return 0;
    return v;
}

} // namespace bpsim

#endif // BPSIM_COMMON_ENV_HH
