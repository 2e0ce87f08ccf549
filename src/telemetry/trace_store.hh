/**
 * @file
 * Bounded lock-free trace store for tail-sampled per-decode traces.
 *
 * The tracer (telemetry/decode_trace.hh) records stage spans for every
 * decode; at decode completion a retention verdict keeps only the
 * interesting ones — slow, gave up, audit-sampled, or hit by the head
 * stride. Kept traces land here, in two places:
 *
 *  - a fixed-capacity ring of seqlock-published slots. A writer takes
 *    a ring position with one fetch_add, claims the position's slot
 *    by a CAS of its sequence to an odd value and publishes with a
 *    release store of the next even value; the payload moves in and
 *    out as relaxed atomic words, and readers re-check the sequence,
 *    retrying torn reads. Nothing blocks and nothing allocates on the
 *    keep path — the slot array is allocated once at configure(),
 *    its payloads not zero-filled, since no reader opens a slot
 *    before its first write;
 *  - a per-latency-bucket exemplar table (the log2 buckets of
 *    telemetry/metrics.hh, the same geometry the /metrics latency
 *    histogram exposes). Each bucket pins a full copy of its
 *    worst-latency kept trace, so an OpenMetrics exemplar's trace id
 *    stays resolvable via /traces/<id> even after the ring evicted the
 *    slot. Exemplar updates are rare (only when a kept trace beats the
 *    bucket's current worst) and sit behind a mutex.
 *
 * Audit annotations arrive asynchronously (the auditor re-decodes on a
 * background pool): annotateAudit() attaches the weight gap through a
 * per-slot atomic side channel keyed by trace id, so it never disturbs
 * the seqlock protocol, and updates the exemplar copy under the mutex.
 *
 * Writers that lap each other on one slot never interleave: the CAS
 * succeeds only from a stable sequence older than the writer's
 * position, so a writer that finds the slot mid-write or already
 * holding a newer trace counts its own trace as dropped instead.
 *
 * The store also writes forensic captures. When a capture is armed
 * (ASTREA_CAPTURE_PATH=file.json for the first trigger only, or
 * ASTREA_CAPTURE_DIR=dir for numbered capture-NNN.json files, bounded
 * by ASTREA_CAPTURE_MAX_FILES and spaced by
 * ASTREA_CAPTURE_MIN_INTERVAL_MS), a give-up, a logical error or an
 * audit mismatch dumps one JSON document: the trigger's /traces/<id>
 * detail with its full defect list, a "trigger" reason, and a
 * "recent" array of the stream's last decodes, oldest first, taken
 * from the tracer's per-thread ring (telemetry/decode_trace.hh).
 * `astrea_cli replay` re-decodes it (harness/replay.hh).
 */

#ifndef ASTREA_TELEMETRY_TRACE_STORE_HH
#define ASTREA_TELEMETRY_TRACE_STORE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "telemetry/metrics.hh"

namespace astrea
{
namespace telemetry
{

class JsonWriter;
class PrometheusWriter;

/** /traces JSON schema version. */
constexpr uint64_t kTraceSchemaVersion = 1;

/** Spans a kept trace can carry inline; excess is counted, not kept. */
constexpr uint32_t kTraceMaxSpans = 24;

/** Defects a kept trace can carry inline (== audit sample cap). */
constexpr uint32_t kTraceMaxDefects = 64;

/** Decoder-name capacity, including the NUL. */
constexpr uint32_t kTraceDecoderLen = 32;

/** Retention-reason bits (StoredTrace::reasons). */
enum : uint8_t
{
    kTraceKeepSlow = 1u << 0,     ///< Latency above the tail threshold.
    kTraceKeepGiveUp = 1u << 1,   ///< Decoder gave up.
    kTraceKeepAudit = 1u << 2,    ///< Sampled into the audit queue.
    kTraceKeepStride = 1u << 3,   ///< Head-sampling stride hit.
    kTraceKeepError = 1u << 4,    ///< Logical error.
};

/** One stage interval, offsets relative to the batch start. */
struct TraceSpan
{
    uint8_t stage = 0;   ///< PerfStage value (perf_counters.hh).
    int32_t shot = -1;   ///< In-batch shot index; -1 = whole batch.
    uint32_t startNs = 0;
    uint32_t durNs = 0;
};

/** One audit verdict (audit/auditor.hh), as a trace records it. */
struct TraceAuditVerdict
{
    bool mismatch = false;
    bool oracleDp = false;   ///< DP oracle; false = blossom MWPM.
    bool quantized = true;   ///< Quantized GWT vs exact decade weights.
    double gapDecades = 0.0;
    double oracleWeight = 0.0;
    uint64_t oracleObs = 0;
};

/** One kept trace: fixed-size so ring slots publish with a memcpy. */
struct StoredTrace
{
    uint64_t traceId = 0;
    uint64_t shot = 0;     ///< Global shot index in its run.
    /** Steady-clock start of the decode's batch (ns), which the span
     *  offsets count from. */
    uint64_t batchStartNs = 0;
    uint32_t stream = 0;   ///< Worker / stream id.
    uint32_t hw = 0;
    char decoder[kTraceDecoderLen] = {};
    double latencyNs = 0.0;
    uint64_t cycles = 0;
    double matchingWeight = 0.0;
    uint64_t obsMask = 0;
    uint64_t actualObs = 0;
    bool gaveUp = false;
    bool logicalError = false;
    uint8_t reasons = 0;

    // Audit cross-link. `audited` is set synchronously when the shot
    // was enqueued for audit; `audit` arrives via annotateAudit().
    bool audited = false;
    bool auditDone = false;
    TraceAuditVerdict audit;

    uint32_t numSpans = 0;
    uint32_t droppedSpans = 0;
    TraceSpan spans[kTraceMaxSpans];
    uint32_t defects[kTraceMaxDefects] = {};
};

/**
 * One finished decode in a tracer's recent-decode ring: what a
 * capture's "recent" array holds. Defects past kTraceMaxDefects are
 * not kept; hw keeps the true count, so replay can tell a truncated
 * record from a whole one.
 */
struct RecentDecode
{
    uint64_t shot = 0;
    uint64_t traceId = 0;
    uint64_t obsMask = 0;
    uint64_t actualObs = 0;
    uint64_t cycles = 0;
    double latencyNs = 0.0;
    double matchingWeight = 0.0;
    uint32_t stream = 0;
    uint32_t hw = 0;
    bool gaveUp = false;
    bool logicalError = false;
    uint32_t defects[kTraceMaxDefects] = {};
};

/** "ok", "give_up" or "logical_error". */
const char *traceOutcomeName(const StoredTrace &t);

/** Lowercase hex (16 digits) for a trace id. */
std::string traceIdHex(uint64_t id);

/** Parse a hex trace id ("0x" prefix optional); 0 on failure. */
uint64_t parseTraceIdHex(const std::string &s);

/** /traces index filters (all optional). */
struct TraceQuery
{
    double minNs = 0.0;      ///< Keep traces with latency >= minNs.
    std::string decoder;     ///< Exact decoder name; "" = any.
    std::string outcome;     ///< traceOutcomeName() value; "" = any.
    size_t limit = 100;
};

/** Bounded ring + exemplar table; see file comment. */
class TraceStore
{
  public:
    explicit TraceStore(size_t capacity = 1024);
    ~TraceStore();

    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    /**
     * (Re)size the ring and clear everything, counters included. Not
     * safe against concurrent keep() — call at service startup or from
     * tests, before decode workers run.
     */
    void configure(size_t capacity);

    /**
     * Start a new run: install its context / decoder descriptions
     * (pre-serialized JSON objects) so a dumped trace or capture
     * embeds enough for `astrea_cli replay` to rebuild the decode, and
     * advance run(), which makes every tracer forget the recent
     * decodes it kept for an earlier run.
     */
    void setRunInfo(std::string context_json, std::string decoder_json);

    /** Number of setRunInfo() calls so far. */
    uint64_t run() const { return run_.load(std::memory_order_acquire); }

    /** One decode completed with tracing active. */
    void noteConsidered() { considered_.fetch_add(1, relaxed_); }
    /** ...and its retention verdict discarded it. */
    void noteDropped() { dropped_.fetch_add(1, relaxed_); }
    /** Spans lost to the per-trace cap or the tracer buffer. */
    void noteSpansDropped(uint64_t n)
    {
        if (n)
            spansDropped_.fetch_add(n, relaxed_);
    }

    /** Retain a trace: ring publish + exemplar update. Lock-free on
     *  the ring; takes the exemplar mutex to check whether this trace
     *  is the new worst of its latency bucket. Never allocates. A
     *  trace that loses its ring slot to a lapping writer is counted
     *  as dropped and not kept. */
    void keep(const StoredTrace &t);

    /**
     * Attach the asynchronous audit verdict to a kept trace, wherever
     * it still lives (ring slot, exemplar copy, or both). Returns true
     * if any copy was annotated.
     */
    bool annotateAudit(uint64_t trace_id, const TraceAuditVerdict &v);

    /** Copy a trace out by id; ring first, then exemplar table.
     *  `out` may be null for a pure existence check. */
    bool find(uint64_t trace_id, StoredTrace *out) const;

    /** Ring contents, newest first, capped at limit. Allocates. */
    std::vector<StoredTrace> snapshot(size_t limit = SIZE_MAX) const;

    struct Counters
    {
        uint64_t considered = 0;
        uint64_t kept = 0;
        uint64_t dropped = 0;
        uint64_t evicted = 0;
        uint64_t spansDropped = 0;
        size_t occupancy = 0;
        size_t capacity = 0;
    };
    Counters counters() const;

    /** Latency-bucket exemplar (log2 bucket b of metrics.hh). */
    struct Exemplar
    {
        bool valid = false;
        uint64_t traceId = 0;
        double latencyNs = 0.0;
    };
    Exemplar exemplar(size_t bucket) const;

    /** Worst exemplar strictly above log2 bucket `bucket` (for the
     *  +Inf histogram bucket); invalid when none. */
    Exemplar exemplarAbove(size_t bucket) const;

    /** /traces index JSON (filtered, newest first). */
    std::string indexJson(const TraceQuery &q) const;

    /** /traces/<id> detail JSON; "" when the id is not resolvable. */
    std::string detailJson(uint64_t trace_id) const;

    /** Append astrea_trace_* families to a /metrics exposition. */
    void writeMetrics(PrometheusWriter &w) const;

    /** Write the /statusz "trace_store" object's key/value pairs into
     *  an already-open JSON object. */
    void writeStatusz(JsonWriter &w) const;

    /**
     * Arm one-shot capture: the first trigger after arming writes its
     * capture to path, and the capture disarms. "" disarms.
     */
    void setCapturePath(std::string path);

    /**
     * Arm directory capture: each trigger writes the next numbered
     * capture-NNN.json into dir, at most max_files of them, at least
     * min_interval_ms apart. Takes precedence over setCapturePath().
     * "" disarms.
     */
    void setCaptureDir(std::string dir, size_t max_files = 32,
                       uint64_t min_interval_ms = 1000);

    /** Whether a trigger would be offered a capture (one relaxed
     *  load; the tracer checks it once per batch). */
    bool captureArmed() const { return captureArmed_.load(relaxed_); }

    /**
     * Capture trigger t (reason "give_up", "logical_error" or
     * "audit_mismatch"): its detail document with the full `defects`
     * list, plus the entries of `recent` from t's stream, oldest
     * first. `recent` is a ring whose oldest entry sits at index
     * `oldest`. The file is claimed under a lock before the write, so
     * concurrent triggers never share or rewrite a file. Returns true
     * when a capture was written.
     */
    bool capture(const StoredTrace &t, std::span<const uint32_t> defects,
                 const char *reason,
                 std::span<const RecentDecode> recent = {},
                 size_t oldest = 0);

    uint64_t capturesWritten() const
    {
        return capturesWritten_.load(relaxed_);
    }
    /** Directory-mode triggers suppressed by the rate limit. */
    uint64_t capturesRateLimited() const
    {
        return capturesRateLimited_.load(relaxed_);
    }

    /** The process-wide store the tracer publishes into. */
    static TraceStore &global();

  private:
    struct Slot;

    bool readSlot(size_t idx, StoredTrace *out) const;
    void appendSummaryJson(JsonWriter &w, const StoredTrace &t) const;
    /** Detail keys of t into an open object; defects in full. */
    void appendDetailFields(JsonWriter &w, const StoredTrace &t,
                            std::span<const uint32_t> defects) const;
    /** Claim the file a trigger's capture goes to; "" = none. */
    std::string claimCapturePath();

    static constexpr std::memory_order relaxed_ =
        std::memory_order_relaxed;

    std::unique_ptr<Slot[]> slots_;
    size_t capacity_ = 0;
    alignas(64) std::atomic<uint64_t> head_{0};

    std::atomic<uint64_t> considered_{0};
    std::atomic<uint64_t> kept_{0};
    std::atomic<uint64_t> dropped_{0};
    std::atomic<uint64_t> evicted_{0};
    std::atomic<uint64_t> spansDropped_{0};

    struct ExemplarSlot
    {
        bool valid = false;
        StoredTrace t;
    };
    mutable std::mutex exemplarMu_;
    ExemplarSlot exemplars_[kLatencyBuckets];

    mutable std::mutex runInfoMu_;
    std::string contextJson_;
    std::string decoderJson_;
    std::atomic<uint64_t> run_{0};

    std::atomic<bool> captureArmed_{false};
    std::atomic<uint64_t> capturesWritten_{0};
    std::atomic<uint64_t> capturesRateLimited_{0};
    std::mutex captureMu_;
    std::string capturePath_;
    std::string captureDir_;
    size_t captureMaxFiles_ = 32;
    std::chrono::milliseconds captureMinInterval_{1000};
    uint64_t captureDirSeq_ = 0;
    std::optional<std::chrono::steady_clock::time_point> lastCapture_;
};

} // namespace telemetry
} // namespace astrea

#endif // ASTREA_TELEMETRY_TRACE_STORE_HH
