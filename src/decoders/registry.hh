/**
 * @file
 * DecoderRegistry: the single source of truth for decoder names.
 *
 * Decoder construction used to be duplicated across five layers (the
 * harness factories, the capture replayer, the decode service, the CLI
 * and per-bench lambdas), each with its own name strings and error
 * messages. The registry centralizes all of it: canonical names map to
 * factories taking one typed DecoderOptions struct, `listDecoders()`
 * exposes the metadata that `astrea_cli list-decoders` and the README
 * table print, and every "unknown decoder" error enumerates the same
 * list, so the accepted name sets can no longer drift apart.
 *
 * Canonical names:
 *
 *   astrea, astrea-g, mwpm (alias: blossom), union-find (alias: uf),
 *   clique, lut, greedy, and the windowed-<inner> wrapper prefix
 *   (windowed-astrea, windowed-mwpm, windowed-greedy — any inner that
 *   reports its matching).
 *
 * Display names (what Decoder::name() returns, e.g. "Astrea-G",
 * "Windowed(MWPM)") also resolve, which is how replayed traces and
 * captures reconstruct their decoder through makeFromDescription().
 */

#ifndef ASTREA_DECODERS_REGISTRY_HH
#define ASTREA_DECODERS_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "astrea/astrea_decoder.hh"
#include "astrea/astrea_g_decoder.hh"
#include "circuit/circuit.hh"
#include "decoders/decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "graph/decoding_graph.hh"
#include "graph/weight_table.hh"
#include "stream/window_decoder.hh"
#include "telemetry/json_value.hh"

namespace astrea
{

/**
 * Everything a registry factory may need: the experiment context
 * pieces (borrowed, must outlive the decoder) plus per-decoder knobs.
 * Factories validate the pieces they actually require and error
 * otherwise.
 */
struct DecoderOptions
{
    /** Weight table (required by every decoder except union-find). */
    const GlobalWeightTable *gwt = nullptr;
    /** Decoding graph (required by union-find and clique). */
    const DecodingGraph *graph = nullptr;
    /** Per-detector metadata (required by windowed-* wrappers). */
    const std::vector<DetectorInfo> *detectorInfo = nullptr;
    /** Detector rounds incl. the final comparison round (windowed-*). */
    uint32_t totalRounds = 0;
    /** Code distance; enables Wth auto-resolution and window defaults. */
    uint32_t distance = 0;
    /** Physical error rate; enables Astrea-G Wth auto-resolution. */
    double physicalErrorRate = 0.0;

    AstreaConfig astrea;
    AstreaGConfig astreaG;
    UnionFindConfig unionFind;
    StreamingConfig streaming;
};

/** Broad decoder category, for listings. */
enum class DecoderKind
{
    Hardware,  ///< Modeled-cycle hardware design.
    Software,  ///< Wall-clock software baseline.
    Wrapper,   ///< Streaming wrapper around an inner decoder.
};

const char *decoderKindName(DecoderKind kind);

/** One listDecoders() row. */
struct DecoderInfo
{
    std::string name;  ///< Canonical registry name.
    std::vector<std::string> aliases;
    DecoderKind kind;
    std::string description;
};

/** Central decoder name -> factory mapping. */
class DecoderRegistry
{
  public:
    /** The process-wide registry (immutable, thread-safe). */
    static const DecoderRegistry &global();

    /** Every constructible name, wrapper variants included. */
    std::vector<DecoderInfo> listDecoders() const;

    /**
     * Resolve a canonical name, alias, display name (Decoder::name()
     * output such as "Astrea-G" or "Windowed(MWPM)"), or windowed-*
     * compound to its canonical registry name; "" when unknown.
     */
    std::string canonicalName(const std::string &name) const;

    /**
     * Build the named decoder. Returns nullptr and sets *error_out
     * (which enumerates the known names for unknown-name failures)
     * when the name is unknown or opts lacks a required context piece.
     */
    std::unique_ptr<Decoder> make(const std::string &name,
                                  const DecoderOptions &opts,
                                  std::string *error_out) const;

    /**
     * Rebuild a decoder from a capture's description: the display name
     * plus the describeConfig() JSON object. Knobs present in the JSON
     * override those in opts; absent ones keep opts' values (which is
     * how the replayer forces recordMatching on).
     */
    std::unique_ptr<Decoder>
    makeFromDescription(const std::string &display_name,
                        const telemetry::JsonValue &config,
                        const DecoderOptions &opts,
                        std::string *error_out) const;

    /** Comma-separated canonical names, for error messages. */
    std::string knownNamesText() const;

  private:
    DecoderRegistry() = default;
};

/**
 * Wrap an already-built inner decoder in the sliding-window streaming
 * decoder, using opts' window context (gwt, detectorInfo, totalRounds,
 * distance, streaming). The one WindowDecoder construction point.
 */
std::unique_ptr<Decoder> makeWindowedDecoder(const DecoderOptions &opts,
                                             std::unique_ptr<Decoder> inner);

/**
 * Convenience make() for call sites with a statically-known name:
 * fatals with the registry's error message instead of returning null.
 */
std::unique_ptr<Decoder> makeDecoder(const std::string &name,
                                     const DecoderOptions &opts);

} // namespace astrea

#endif // ASTREA_DECODERS_REGISTRY_HH
