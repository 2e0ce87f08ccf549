/**
 * @file
 * Deterministic re-decoding of captures and kept traces.
 *
 * Every decoder in this repository is a pure function of the Global
 * Weight Table and the defect list, and the GWT itself is a pure
 * function of the experiment configuration. A trace store document
 * (telemetry/trace_store.hh) therefore holds everything needed to
 * reproduce a decode bit-for-bit: the embedded ExperimentConfig
 * (rebuilds the context and GWT), the decoder name plus configuration
 * (rebuilds the decoder), and the recorded defect lists.
 *
 * loadCapture() reads one format: a /traces/<id> detail document,
 * optionally with the "trigger" reason and "recent" array that make
 * it a capture (the stream's last decodes, oldest first).
 * replayCapture() re-decodes each record, checks that the recorded
 * verdict reproduces exactly, and can narrate the decode — surviving
 * LWT candidate pairs, the chosen matching, the verdict, and the audit
 * oracle's matching when the document carries an audit verdict — for
 * post-mortem analysis of a give-up, logical error or audit mismatch.
 * A record that kept fewer defects than its Hamming weight (a trace's
 * inline copy holds at most kTraceMaxDefects) is reported as
 * truncated and not verified. ReplayOptions::traceId selects one
 * record by its trace id.
 */

#ifndef ASTREA_HARNESS_REPLAY_HH
#define ASTREA_HARNESS_REPLAY_HH

#include <ostream>
#include <string>
#include <vector>

#include "harness/memory_experiment.hh"
#include "telemetry/json_value.hh"
#include "telemetry/trace_store.hh"

namespace astrea
{

/**
 * One recorded decode, as replay reads it: the trace fields (the
 * inline `defects` array unused) plus the defect list as recorded,
 * which may hold fewer entries than hw.
 */
struct ReplayRecord : telemetry::StoredTrace
{
    std::vector<uint32_t> syndrome;

    /** Fewer defects kept than the decode saw: cannot be re-decoded. */
    bool truncated() const { return syndrome.size() < hw; }
};

/** A parsed trace detail or capture. */
struct ReplayCapture
{
    ExperimentConfig config;
    std::string decoderName;
    telemetry::JsonValue decoderConfig;  ///< The "decoder_config" object.
    /** "give_up", "logical_error" or "audit_mismatch" for a capture;
     *  "" for a plain trace detail. */
    std::string triggerReason;
    /** The stream's recent decodes, oldest first, then the document's
     *  own decode (the trigger) last. */
    std::vector<ReplayRecord> records;
};

/**
 * Load and validate a trace detail or capture. Returns false and sets
 * *error_out on unreadable files, malformed JSON, a document without
 * run info, or a schema-1 flight-recorder capture.
 */
bool loadCapture(const std::string &path, ReplayCapture &out,
                 std::string *error_out);

/** Replay controls. */
struct ReplayOptions
{
    /** Narrate the trigger (or trace) record's decode step by step. */
    bool verbose = false;
    /** Narrate every record (implies verbose). */
    bool verboseAll = false;
    /** Narrate the record with this trace id (0 = none). */
    uint64_t traceId = 0;
    /** Cap on candidate pairs printed per defect in narration. */
    size_t maxCandidatesPerDefect = 8;
};

/** Outcome of one replayed capture. */
struct ReplaySummary
{
    size_t records = 0;
    size_t truncated = 0;   ///< Records printed but not verified.
    size_t mismatches = 0;  ///< Records whose verdict did not reproduce.
    size_t gaveUps = 0;
    size_t logicalErrors = 0;

    bool ok() const { return mismatches == 0; }
};

/**
 * Rebuild the capture's context and decoder, re-decode every record
 * that is not truncated, and compare against the recorded verdicts
 * (obs mask, give-up flag and modeled cycles exactly; matching weight
 * to 1e-9). Progress and narration go to `out`. Each record decodes
 * under this thread's decode tracer (telemetry/decode_trace.hh) with
 * the record's stream and shot, so with tracing on the trace store
 * may keep it, stage spans included; its trace id is a new one.
 */
ReplaySummary replayCapture(const ReplayCapture &capture,
                            const ReplayOptions &options,
                            std::ostream &out);

} // namespace astrea

#endif // ASTREA_HARNESS_REPLAY_HH
