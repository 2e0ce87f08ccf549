/**
 * @file
 * Typed environment-variable readers with one-time warnings.
 *
 * Every subsystem used to hand-roll its own std::getenv parsing
 * (telemetry switches, trace paths, capture limits, worker
 * counts), each with slightly different malformed-value behavior. This
 * helper centralizes the conventions:
 *
 *   - unset variables yield the caller's default, silently;
 *   - malformed values (non-numeric, below a stated minimum) yield the
 *     default and warn exactly once per variable per process, so a
 *     typo'd knob is loud without spamming worker threads;
 *   - boolean variables treat "", "0", "off", "false" and "no"
 *     (case-insensitive) as false and anything else as true.
 *
 * The ASTREA_SERVE_* service knobs, ASTREA_THREADS, ASTREA_TELEMETRY,
 * the forensics paths and the kernel-dispatch override
 * (ASTREA_FORCE_KERNEL={scalar,avx2,avx512}, pinning one matching-
 * kernel tier with warn-once fallback when the CPU lacks it) all read
 * through here.
 */

#ifndef ASTREA_COMMON_ENV_HH
#define ASTREA_COMMON_ENV_HH

#include <cstdint>
#include <string>

namespace astrea
{
namespace env
{

/** Raw getenv; nullptr when unset. */
const char *raw(const char *name);

/** String value, or def when the variable is unset. */
std::string getString(const char *name, const std::string &def);

/**
 * Boolean value. Unset yields def; "", "0", "off", "false", "no"
 * (case-insensitive) are false; any other value is true.
 */
bool getBool(const char *name, bool def);

/**
 * Unsigned integer value. Unset yields def; a value that does not
 * parse completely as a base-10 non-negative integer, or parses below
 * min_value, warns once and yields def.
 */
uint64_t getUint(const char *name, uint64_t def,
                 uint64_t min_value = 0);

/**
 * Floating-point value. Unset yields def; a value that does not parse
 * completely as a finite number warns once and yields def.
 */
double getDouble(const char *name, double def);

/** Testing hook: forget which variables have already warned. */
void resetWarningsForTest();

} // namespace env
} // namespace astrea

#endif // ASTREA_COMMON_ENV_HH
