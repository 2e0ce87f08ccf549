/**
 * @file
 * Minimal streaming JSON writer for telemetry exports.
 *
 * The bench reports and trace documents need machine-readable
 * output, but the repository has a no-external-dependency policy, so
 * this is a small hand-rolled writer: begin/end object/array with automatic
 * comma placement, string escaping, and finite-number handling
 * (NaN/Inf serialize as null, which every JSON parser accepts).
 * Balanced nesting is enforced with ASTREA_CHECK; the writer is for
 * trusted in-process callers, not arbitrary input.
 */

#ifndef ASTREA_TELEMETRY_JSON_HH
#define ASTREA_TELEMETRY_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

namespace astrea
{
namespace telemetry
{

/** Escape a string for inclusion in JSON (adds surrounding quotes). */
std::string jsonQuote(const std::string &s);

/** Streaming JSON writer with automatic comma management. */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be followed by exactly one value. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(bool v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int64_t v);
    JsonWriter &value(uint32_t v) { return value(uint64_t{v}); }
    JsonWriter &value(int32_t v) { return value(int64_t{v}); }
    JsonWriter &null();

    /**
     * Splice a pre-serialized JSON value verbatim in value position.
     * The caller vouches that the fragment is itself valid JSON (the
     * trace store embeds context objects serialized elsewhere).
     */
    JsonWriter &raw(const std::string &json_value);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    kv(const std::string &k, T v)
    {
        key(k);
        return value(v);
    }

    /** Finished document; checks that all containers were closed. */
    const std::string &str() const;

    bool balanced() const { return levels_.empty(); }

  private:
    struct Level
    {
        char type;  ///< '{' or '['.
        bool any;   ///< An element has been written at this level.
    };

    void emitPrefix();
    void postValue();

    std::string out_;
    std::vector<Level> levels_;
    bool afterKey_ = false;
};

} // namespace telemetry
} // namespace astrea

#endif // ASTREA_TELEMETRY_JSON_HH
