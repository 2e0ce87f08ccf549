#include "telemetry/decode_trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>

#include "common/env.hh"

namespace astrea
{
namespace telemetry
{

namespace
{

std::atomic<bool> g_enabled{false};
std::atomic<double> g_tailNs{0.0};
std::atomic<uint64_t> g_stride{8192};
std::atomic<double> g_autoTailNs{0.0};
std::once_flag g_envOnce;

void
readEnvOnce()
{
    std::call_once(g_envOnce, [] {
        TraceRetentionConfig base;
        base.enabled = g_enabled.load(std::memory_order_relaxed);
        base.tailThresholdNs =
            g_tailNs.load(std::memory_order_relaxed);
        base.headStride = g_stride.load(std::memory_order_relaxed);
        TraceRetentionConfig cfg =
            TraceRetentionConfig::fromEnv(base);
        g_enabled.store(cfg.enabled, std::memory_order_relaxed);
        g_tailNs.store(cfg.tailThresholdNs,
                       std::memory_order_relaxed);
        g_stride.store(cfg.headStride, std::memory_order_relaxed);
    });
}

uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** splitmix64: the standard 64-bit mix, good enough for trace ids. */
uint64_t
splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

thread_local DecodeTracer t_tracer;

} // namespace

TraceRetentionConfig
TraceRetentionConfig::fromEnv(TraceRetentionConfig base)
{
    base.enabled = env::getBool("ASTREA_TRACE", base.enabled);
    base.tailThresholdNs = env::getDouble("ASTREA_TRACE_TAIL_NS",
                                          base.tailThresholdNs);
    base.headStride =
        env::getUint("ASTREA_TRACE_STRIDE", base.headStride, 0);
    return base;
}

void
setTraceRetention(const TraceRetentionConfig &cfg)
{
    // Mark the environment as consumed: an explicit setter wins.
    std::call_once(g_envOnce, [] {});
    g_enabled.store(cfg.enabled, std::memory_order_relaxed);
    g_tailNs.store(cfg.tailThresholdNs, std::memory_order_relaxed);
    g_stride.store(cfg.headStride, std::memory_order_relaxed);
}

TraceRetentionConfig
traceRetention()
{
    readEnvOnce();
    TraceRetentionConfig cfg;
    cfg.enabled = g_enabled.load(std::memory_order_relaxed);
    cfg.tailThresholdNs = g_tailNs.load(std::memory_order_relaxed);
    cfg.headStride = g_stride.load(std::memory_order_relaxed);
    return cfg;
}

void
setTraceAutoTailNs(double p99_ns)
{
    g_autoTailNs.store(p99_ns, std::memory_order_relaxed);
}

double
traceEffectiveTailNs()
{
    readEnvOnce();
    const double explicit_ns =
        g_tailNs.load(std::memory_order_relaxed);
    return explicit_ns > 0.0
               ? explicit_ns
               : g_autoTailNs.load(std::memory_order_relaxed);
}

void
DecodeTracer::beginBatch(uint32_t stream, uint64_t base_shot,
                         const char *decoder, uint64_t seed)
{
    const TraceRetentionConfig cfg = traceRetention();
    TraceStore &store = TraceStore::global();
    keepTraces_ = cfg.enabled;
    capturing_ = store.captureArmed();
    active_ = keepTraces_ || capturing_;
    if (!active_)
        return;
    if (capturing_) {
        if (recent_ == nullptr)
            recent_ = std::make_unique<RecentDecode[]>(kRecentShots);
        // A new run must never leak an earlier run's shots into its
        // captures, even on a thread that ran both.
        const uint64_t run = store.run();
        if (run != recentRun_) {
            recentRun_ = run;
            recentCount_ = 0;
        }
    }
    stream_ = stream;
    baseShot_ = base_shot;
    seed_ = seed;
    std::strncpy(decoder_, decoder == nullptr ? "" : decoder,
                 sizeof(decoder_) - 1);
    decoder_[sizeof(decoder_) - 1] = '\0';
    batchStartNs_ = steadyNowNs();
    curShot_ = -1;
    // Empty ranges for shots that never begin (a finishShot() without
    // a shotBegin() must not inherit a stale range from a prior batch).
    std::memset(shotStart_, 0, sizeof(shotStart_));
    std::memset(shotEnd_, 0, sizeof(shotEnd_));
    nBuf_ = 0;
    droppedBuf_ = 0;
    depth_ = 0;
    hasBatchSpan_ = false;
    tailNs_ = traceEffectiveTailNs();
    stride_ = cfg.headStride;
}

void
DecodeTracer::shotBegin(uint32_t shot_idx)
{
    if (!active_)
        return;
    // Seal the previous shot's span range: the bucketed wide path
    // begins shots out of batch order, so each shot's extent has to be
    // pinned when the recorder moves on, not inferred from its
    // neighbor's start.
    if (curShot_ >= 0 &&
        curShot_ < static_cast<int32_t>(kMaxBatchShots))
        shotEnd_[curShot_] = nBuf_;
    curShot_ = static_cast<int32_t>(shot_idx);
    if (shot_idx < kMaxBatchShots) {
        shotStart_[shot_idx] = nBuf_;
        shotEnd_[shot_idx] = nBuf_;
    }
}

void
DecodeTracer::stageBegin(PerfStage stage)
{
    if (!active_)
        return;
    if (depth_ >= sizeof(open_) / sizeof(open_[0])) {
        droppedBuf_++;
        return;
    }
    open_[depth_++] = OpenSection{stage, curShot_, steadyNowNs()};
}

void
DecodeTracer::stageEnd(PerfStage stage)
{
    if (!active_ || depth_ == 0)
        return;
    // Sections are stack objects, so ends arrive in LIFO order; a
    // mismatch means the matching begin overflowed the stack.
    if (open_[depth_ - 1].stage != stage)
        return;
    const OpenSection sec = open_[--depth_];
    const uint64_t now = steadyNowNs();
    TraceSpan span;
    span.stage = static_cast<uint8_t>(stage);
    span.shot = sec.shot;
    span.startNs = static_cast<uint32_t>(
        sec.t0 > batchStartNs_ ? sec.t0 - batchStartNs_ : 0);
    span.durNs =
        static_cast<uint32_t>(now > sec.t0 ? now - sec.t0 : 0);
    if (stage == PerfStage::Batch && sec.shot < 0) {
        batchSpan_ = span;
        hasBatchSpan_ = true;
        return;
    }
    if (nBuf_ < kBufSpans)
        buf_[nBuf_++] = span;
    else
        droppedBuf_++;
}

void
DecodeTracer::recordStage(PerfStage stage, uint64_t t0_ns,
                          uint64_t t1_ns)
{
    if (!active_)
        return;
    TraceSpan span;
    span.stage = static_cast<uint8_t>(stage);
    span.shot = curShot_;
    span.startNs = static_cast<uint32_t>(
        t0_ns > batchStartNs_ ? t0_ns - batchStartNs_ : 0);
    span.durNs =
        static_cast<uint32_t>(t1_ns > t0_ns ? t1_ns - t0_ns : 0);
    if (nBuf_ < kBufSpans)
        buf_[nBuf_++] = span;
    else
        droppedBuf_++;
}

uint64_t
DecodeTracer::shotId(uint32_t shot_idx) const
{
    const uint64_t id = splitmix64(seed_ + baseShot_ + shot_idx);
    return id == 0 ? 1 : id;
}

void
DecodeTracer::rememberShot(uint32_t shot_idx, const TraceShotOutcome &o)
{
    RecentDecode &r = recent_[recentCount_++ % kRecentShots];
    r.shot = baseShot_ + shot_idx;
    r.traceId = shotId(shot_idx);
    r.obsMask = o.obsMask;
    r.actualObs = o.actualObs;
    r.cycles = o.cycles;
    r.latencyNs = o.latencyNs;
    r.matchingWeight = o.matchingWeight;
    r.stream = stream_;
    r.hw = o.defects != nullptr ? o.hw : 0;
    r.gaveUp = o.gaveUp;
    r.logicalError = o.logicalError;
    const uint32_t n = std::min(r.hw, kTraceMaxDefects);
    if (n > 0)
        std::memcpy(r.defects, o.defects, n * sizeof(uint32_t));
}

uint64_t
DecodeTracer::finishShot(uint32_t shot_idx,
                         const TraceShotOutcome &o)
{
    if (!active_)
        return 0;
    TraceStore &store = TraceStore::global();
    if (capturing_)
        rememberShot(shot_idx, o);
    const bool trigger = capturing_ && (o.gaveUp || o.logicalError);

    uint8_t reasons = 0;
    if (tailNs_ > 0.0 && o.latencyNs > tailNs_)
        reasons |= kTraceKeepSlow;
    if (o.gaveUp)
        reasons |= kTraceKeepGiveUp;
    if (o.logicalError)
        reasons |= kTraceKeepError;
    if (o.audited)
        reasons |= kTraceKeepAudit;
    bool keep = false;
    if (keepTraces_) {
        store.noteConsidered();
        if (stride_ > 0 && (baseShot_ + shot_idx + 1) % stride_ == 0)
            reasons |= kTraceKeepStride;
        keep = reasons != 0;
        if (!keep)
            store.noteDropped();
    }
    if (!keep && !trigger)
        return 0;

    StoredTrace t;
    t.traceId = shotId(shot_idx);
    t.shot = baseShot_ + shot_idx;
    t.stream = stream_;
    t.hw = o.hw;
    std::memcpy(t.decoder, decoder_, sizeof(t.decoder));
    t.latencyNs = o.latencyNs;
    t.cycles = o.cycles;
    t.matchingWeight = o.matchingWeight;
    t.obsMask = o.obsMask;
    t.actualObs = o.actualObs;
    t.gaveUp = o.gaveUp;
    t.logicalError = o.logicalError;
    t.reasons = reasons;
    t.audited = o.audited;

    // The batch envelope first, then this shot's contiguous span
    // range (shotBegin() records where each shot's spans start).
    uint64_t dropped = 0;
    if (hasBatchSpan_)
        t.spans[t.numSpans++] = batchSpan_;
    if (shot_idx < kMaxBatchShots) {
        const uint32_t lo = shotStart_[shot_idx];
        const uint32_t hi =
            (static_cast<int32_t>(shot_idx) == curShot_)
                ? nBuf_
                : shotEnd_[shot_idx];
        for (uint32_t i = lo; i < hi && i < nBuf_; i++) {
            if (t.numSpans < kTraceMaxSpans)
                t.spans[t.numSpans++] = buf_[i];
            else
                dropped++;
        }
    } else if (shot_idx >= kMaxBatchShots) {
        dropped++;  // Beyond the per-shot range table.
    }
    t.droppedSpans = static_cast<uint32_t>(dropped);

    const uint32_t ncopy = std::min(o.hw, kTraceMaxDefects);
    if (o.defects != nullptr && ncopy > 0)
        std::memcpy(t.defects, o.defects, ncopy * sizeof(uint32_t));

    if (trigger) {
        // The capture carries the trigger's full defect list; the
        // ring's copy of it may be cut at kTraceMaxDefects.
        const size_t held = std::min<uint64_t>(recentCount_, kRecentShots);
        store.capture(t, {o.defects, o.defects != nullptr ? o.hw : 0},
                      o.gaveUp ? "give_up" : "logical_error",
                      {recent_.get(), held}, recentCount_ % held);
    }
    if (!keep)
        return 0;
    store.noteSpansDropped(dropped);
    store.keep(t);
    return t.traceId;
}

void
DecodeTracer::endBatch()
{
    if (keepTraces_ && droppedBuf_ > 0)
        TraceStore::global().noteSpansDropped(droppedBuf_);
    active_ = false;
    nBuf_ = 0;
    droppedBuf_ = 0;
    depth_ = 0;
    curShot_ = -1;
    hasBatchSpan_ = false;
}

DecodeTracer &
decodeTracer()
{
    return t_tracer;
}

void
traceStageBegin(PerfStage stage)
{
    t_tracer.stageBegin(stage);
}

void
traceStageEnd(PerfStage stage)
{
    t_tracer.stageEnd(stage);
}

void
traceShotBegin(uint32_t shot_idx)
{
    t_tracer.shotBegin(shot_idx);
}

uint64_t
traceClockNs()
{
    return steadyNowNs();
}

} // namespace telemetry
} // namespace astrea
