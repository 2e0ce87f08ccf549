/**
 * @file
 * Per-decode tracing: a thread-local span recorder with tail-based
 * retention (telemetry/trace_store.hh holds what survives).
 *
 * Every decode gets a TraceContext — a 64-bit trace id derived
 * deterministically from a seed and the shot number, the stream
 * (worker) id, the in-batch shot index and the decoder name — and the
 * existing PerfSection cut points (Gather/Matching/Verdict/Window/
 * Batch) double as span boundaries: perf_counters.cc calls
 * traceStageBegin()/traceStageEnd() unconditionally, so spans record
 * even when the hardware counters are off. Everything lands in a
 * preallocated per-thread buffer; with tracing inactive each hook is
 * one thread-local flag test, and with tracing active the per-span
 * cost is two steady_clock reads — cheap enough to leave on for every
 * decode in a serving fleet, and strictly allocation-free
 * (tests/alloc_test.cc holds the whole begin/decode/finish path to
 * zero steady-state allocations).
 *
 * Retention is decided at decode *completion* (tail-based sampling):
 * finishShot() keeps the trace only if it was slow (latency above the
 * configured threshold, or above the service's rolling p99 when the
 * threshold is 0/auto), gave up, produced a logical error, was
 * sampled into the audit queue, or hit the head-sampling stride.
 * Kept traces move into TraceStore::global(); everything else costs
 * nothing beyond the buffered spans being forgotten.
 *
 * The tracer is also the forensic recorder. While the store has a
 * capture armed (ASTREA_CAPTURE_PATH / ASTREA_CAPTURE_DIR), each
 * thread's tracer keeps its stream's last kRecentShots finished shots
 * in a ring of fixed-size records, allocated once on the thread's
 * first armed batch, and a give-up or logical error seen by
 * finishShot() writes a capture through the store: the trigger's
 * trace with its full defect list plus that ring. A new run
 * (TraceStore::setRunInfo) empties the ring. The tracer runs when
 * tracing is on or a capture is armed, and keeps traces in the store
 * only when tracing is on.
 *
 * Knobs (common/env.hh, overridable via ServeConfig / CLI flags):
 * ASTREA_TRACE (master switch), ASTREA_TRACE_TAIL_NS (0 = auto p99),
 * ASTREA_TRACE_STRIDE, ASTREA_TRACE_RING.
 */

#ifndef ASTREA_TELEMETRY_DECODE_TRACE_HH
#define ASTREA_TELEMETRY_DECODE_TRACE_HH

#include <cstdint>
#include <memory>

#include "telemetry/perf_counters.hh"
#include "telemetry/trace_store.hh"

namespace astrea
{
namespace telemetry
{

/** Retention policy; process-wide (setTraceRetention). */
struct TraceRetentionConfig
{
    /** Master switch; beginBatch() is a no-op when false. */
    bool enabled = false;
    /** Keep traces slower than this; 0 = auto (rolling p99). */
    double tailThresholdNs = 0.0;
    /** Keep every Nth shot, counted by its batch's base_shot plus its
     *  in-batch index; 0 disables head sampling. */
    uint64_t headStride = 8192;

    /** Overlay ASTREA_TRACE_* environment knobs onto base. */
    static TraceRetentionConfig fromEnv(TraceRetentionConfig base);
};

/** Install the process-wide retention policy. */
void setTraceRetention(const TraceRetentionConfig &cfg);

/** Current policy (lazily seeded from the environment). */
TraceRetentionConfig traceRetention();

/**
 * Publish the rolling p99 used as the slow threshold when
 * tailThresholdNs is 0 (the decode service refreshes this
 * periodically from its latency window).
 */
void setTraceAutoTailNs(double p99_ns);

/** Effective slow threshold: explicit if set, else the auto p99. */
double traceEffectiveTailNs();

/** Everything finishShot() needs to pass a retention verdict. */
struct TraceShotOutcome
{
    double latencyNs = 0.0;
    uint64_t cycles = 0;
    double matchingWeight = 0.0;
    uint64_t obsMask = 0;
    uint64_t actualObs = 0;
    bool gaveUp = false;
    bool logicalError = false;
    /** The shot was enqueued into the audit queue (offer() == true). */
    bool audited = false;
    const uint32_t *defects = nullptr;  ///< hw entries, the full list.
    uint32_t hw = 0;
};

/**
 * Per-thread span recorder. Obtain with decodeTracer(); all methods
 * are wait-free and allocation-free.
 */
class DecodeTracer
{
  public:
    /** Spans the batch buffer holds before counting drops. */
    static constexpr uint32_t kBufSpans = 1024;
    /** Largest in-batch shot index with an exact span range. */
    static constexpr uint32_t kMaxBatchShots = 256;
    /** Finished shots the capture ring keeps. */
    static constexpr uint32_t kRecentShots = 256;

    /**
     * Arm tracing for one decodeBatch call on this thread. Trace ids
     * hash seed + base_shot + the in-batch index: the harness passes
     * the run seed and the batch's global shot index, so a shot's id,
     * like the shots the head stride keeps, is the same at every
     * thread count. stream only labels the trace. A no-op (the whole
     * batch records nothing) when retention is disabled and no
     * capture is armed.
     */
    void beginBatch(uint32_t stream, uint64_t base_shot,
                    const char *decoder, uint64_t seed);

    /**
     * Mark the start of in-batch shot `shot_idx` (Decoder::decodeBatch
     * calls this before each decodeInto; the wide bucketed path calls
     * it per lane at verdict time). Shots may begin in any order —
     * beginning a new shot seals the previous shot's span range, so
     * bucketed decoding that visits shots out of batch order still
     * attributes every span to the right shot.
     */
    void shotBegin(uint32_t shot_idx);

    /** Stage hooks (PerfSection ctor/dtor). */
    void stageBegin(PerfStage stage);
    void stageEnd(PerfStage stage);

    /**
     * Append a completed span for the current shot from explicit
     * timestamps (traceClockNs()). The wide decode path measures
     * gather/matching per bucket lane while the kernels run
     * back-to-back, then replays the timestamps here once the lane's
     * shot is current — keeping each shot's spans contiguous without
     * a PerfSection per lane.
     */
    void recordStage(PerfStage stage, uint64_t t0_ns, uint64_t t1_ns);

    /** Deterministic trace id of in-batch shot `shot_idx`. */
    uint64_t shotId(uint32_t shot_idx) const;

    /**
     * Tail-retention verdict for one completed shot: returns the
     * trace id when the trace was kept (published to
     * TraceStore::global()), 0 when discarded or inactive. With a
     * capture armed, also records the shot in the recent ring and
     * captures it if it gave up or is a logical error.
     */
    uint64_t finishShot(uint32_t shot_idx, const TraceShotOutcome &o);

    /** Disarm and forget the batch's buffered spans. */
    void endBatch();

    bool active() const { return active_; }

  private:
    void rememberShot(uint32_t shot_idx, const TraceShotOutcome &o);

    bool active_ = false;
    bool keepTraces_ = false;  ///< Tracing on: kept traces go to the store.
    bool capturing_ = false;   ///< Capture armed for this batch.
    uint32_t stream_ = 0;
    uint64_t baseShot_ = 0;
    uint64_t seed_ = 0;
    char decoder_[kTraceDecoderLen] = {};
    uint64_t batchStartNs_ = 0;
    int32_t curShot_ = -1;

    // Cached retention policy, copied once per batch.
    double tailNs_ = 0.0;
    uint64_t stride_ = 0;

    TraceSpan buf_[kBufSpans];
    uint32_t nBuf_ = 0;
    uint32_t droppedBuf_ = 0;
    uint32_t shotStart_[kMaxBatchShots] = {};
    /** Sealed by the NEXT shotBegin(); the current shot reads nBuf_. */
    uint32_t shotEnd_[kMaxBatchShots] = {};

    struct OpenSection
    {
        PerfStage stage;
        int32_t shot;
        uint64_t t0;
    };
    OpenSection open_[8];
    uint32_t depth_ = 0;

    TraceSpan batchSpan_;
    bool hasBatchSpan_ = false;

    // Capture ring: the last kRecentShots finished shots of the
    // current run, oldest at recentCount_ % kRecentShots once full.
    std::unique_ptr<RecentDecode[]> recent_;
    uint64_t recentCount_ = 0;
    uint64_t recentRun_ = 0;  ///< TraceStore::run() the ring belongs to.
};

/** This thread's tracer. */
DecodeTracer &decodeTracer();

/**
 * Free-function hooks, cheap when tracing is inactive. Called from
 * PerfSection (perf_counters.cc) and Decoder::decodeBatch
 * (decoders/decoder.cc) so every decoder path emits spans without
 * knowing about the tracer.
 */
void traceStageBegin(PerfStage stage);
void traceStageEnd(PerfStage stage);
void traceShotBegin(uint32_t shot_idx);

/**
 * Monotonic timestamp in the tracer's clock domain, for
 * DecodeTracer::recordStage(). Callers should only bother when the
 * tracer is active.
 */
uint64_t traceClockNs();

} // namespace telemetry
} // namespace astrea

#endif // ASTREA_TELEMETRY_DECODE_TRACE_HH
