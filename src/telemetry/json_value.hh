/**
 * @file
 * Minimal JSON document model and recursive-descent parser.
 *
 * The forensics tooling needs to read JSON back, not just write it:
 * the capture replayer re-decodes trace-store captures, and the
 * structural tests validate exporter output. The repository has a
 * no-external-dependency policy, so this is a small hand-rolled
 * parser covering the JSON this codebase itself emits (objects,
 * arrays, strings with the common escapes, finite numbers, literals).
 * It is for trusted tool input — capture files and test fixtures —
 * not adversarial data; depth and size limits are the caller's
 * problem.
 */

#ifndef ASTREA_TELEMETRY_JSON_VALUE_HH
#define ASTREA_TELEMETRY_JSON_VALUE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace astrea
{
namespace telemetry
{

/** Parsed JSON value: a tagged tree. */
struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::map<std::string, JsonValue> obj;

    bool has(const std::string &k) const { return obj.count(k) != 0; }

    /** Member access; a shared Null value for missing keys. */
    const JsonValue &operator[](const std::string &k) const;

    /** Typed readers with defaults (Null/missing yields the default). */
    double asNumber(double def = 0.0) const;
    uint64_t asUint(uint64_t def = 0) const;
    bool asBool(bool def = false) const;
    std::string asString(std::string def = "") const;
};

/**
 * Parse a complete JSON document. Returns false on malformed input or
 * trailing garbage; out is unspecified in that case.
 */
bool parseJson(const std::string &text, JsonValue &out);

} // namespace telemetry
} // namespace astrea

#endif // ASTREA_TELEMETRY_JSON_VALUE_HH
