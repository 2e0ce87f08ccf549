#include "telemetry/trace_store.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "common/env.hh"
#include "common/logging.hh"
#include "telemetry/decode_trace.hh"
#include "telemetry/json.hh"
#include "telemetry/perf_counters.hh"
#include "telemetry/prometheus.hh"

namespace astrea
{
namespace telemetry
{

namespace
{

static_assert(std::is_trivially_copyable_v<StoredTrace> &&
                  sizeof(StoredTrace) % sizeof(uint64_t) == 0,
              "StoredTrace must copy as whole 8-byte words");
constexpr size_t kTraceWords = sizeof(StoredTrace) / sizeof(uint64_t);
static_assert(offsetof(StoredTrace, traceId) % sizeof(uint64_t) == 0);
constexpr size_t kTraceIdWord =
    offsetof(StoredTrace, traceId) / sizeof(uint64_t);

uint64_t
loadWord(uint64_t &w)
{
    return std::atomic_ref<uint64_t>(w).load(std::memory_order_relaxed);
}

/** Copy t into slot words with relaxed atomic stores. */
void
storeWords(uint64_t *words, const StoredTrace &t)
{
    const char *src = reinterpret_cast<const char *>(&t);
    for (size_t k = 0; k < kTraceWords; k++) {
        uint64_t w;
        std::memcpy(&w, src + k * sizeof(uint64_t), sizeof(w));
        std::atomic_ref<uint64_t>(words[k]).store(
            w, std::memory_order_relaxed);
    }
}

/** Copy slot words out with relaxed atomic loads. The result is only
 *  a valid StoredTrace if the seqlock re-check accepts it. */
void
loadWords(uint64_t *words, StoredTrace *out)
{
    char *dst = reinterpret_cast<char *>(out);
    for (size_t k = 0; k < kTraceWords; k++) {
        const uint64_t w = loadWord(words[k]);
        std::memcpy(dst + k * sizeof(uint64_t), &w, sizeof(w));
    }
}

} // namespace

/**
 * One ring slot. The payload is published under a per-slot sequence
 * (odd = write in progress, even = stable; 0 = never written) and
 * copied as relaxed atomic words, so a reader racing a writer sees
 * stale or mixed words — which the sequence re-check rejects — but
 * never a data race. The payload starts uninitialized: nothing reads a
 * slot's words before its sequence is nonzero and even. The audit
 * annotation is an atomic side channel keyed by annId so the
 * background auditor never has to take part in the seqlock protocol.
 */
struct TraceStore::Slot
{
    std::atomic<uint64_t> seq{0};
    uint64_t words[kTraceWords];

    std::atomic<uint64_t> annId{0};
    /** bit 0 done, 1 mismatch, 2 DP oracle, 3 quantized weights. */
    std::atomic<uint32_t> annFlags{0};
    std::atomic<double> annGap{0.0};
    std::atomic<double> annOracleWeight{0.0};
    std::atomic<uint64_t> annOracleObs{0};
};

const char *
traceOutcomeName(const StoredTrace &t)
{
    if (t.gaveUp)
        return "give_up";
    return t.logicalError ? "logical_error" : "ok";
}

std::string
traceIdHex(uint64_t id)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(id));
    return buf;
}

uint64_t
parseTraceIdHex(const std::string &s)
{
    if (s.empty())
        return 0;
    const char *p = s.c_str();
    if (s.size() > 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X'))
        p += 2;
    char *end = nullptr;
    unsigned long long v = std::strtoull(p, &end, 16);
    if (end == p || (end != nullptr && *end != '\0'))
        return 0;
    return static_cast<uint64_t>(v);
}

TraceStore::TraceStore(size_t capacity)
{
    configure(capacity);
}

TraceStore::~TraceStore() = default;

void
TraceStore::configure(size_t capacity)
{
    capacity_ = std::max<size_t>(1, capacity);
    // Default-initialized: the payload words are not zero-filled.
    slots_ = std::make_unique_for_overwrite<Slot[]>(capacity_);
    head_.store(0, relaxed_);
    considered_.store(0, relaxed_);
    kept_.store(0, relaxed_);
    dropped_.store(0, relaxed_);
    evicted_.store(0, relaxed_);
    spansDropped_.store(0, relaxed_);
    std::lock_guard<std::mutex> lock(exemplarMu_);
    for (auto &e : exemplars_)
        e.valid = false;
}

void
TraceStore::setRunInfo(std::string context_json,
                       std::string decoder_json)
{
    std::lock_guard<std::mutex> lock(runInfoMu_);
    contextJson_ = std::move(context_json);
    decoderJson_ = std::move(decoder_json);
    run_.fetch_add(1, std::memory_order_release);
}

void
TraceStore::keep(const StoredTrace &t)
{
    const uint64_t pos = head_.fetch_add(1, relaxed_);
    Slot &s = slots_[pos % capacity_];

    // Claim the slot: CAS its sequence from a stable value older than
    // this position to this position's odd "writing" value. A slot
    // mid-write, or already holding a newer trace, means a lapping
    // writer won it; this trace is dropped rather than interleaved.
    // The acquire orders this payload's stores after the previous
    // writer's, and the release fence orders them after the claim.
    uint64_t cur = s.seq.load(relaxed_);
    if ((cur & 1) != 0 || cur > 2 * pos ||
        !s.seq.compare_exchange_strong(cur, 2 * pos + 1,
                                       std::memory_order_acquire,
                                       relaxed_))
    {
        dropped_.fetch_add(1, relaxed_);
        return;
    }
    std::atomic_thread_fence(std::memory_order_release);
    kept_.fetch_add(1, relaxed_);
    if (pos >= capacity_)
        evicted_.fetch_add(1, relaxed_);
    s.annId.store(0, relaxed_);
    storeWords(s.words, t);
    s.seq.store(2 * pos + 2, std::memory_order_release);

    // Exemplar update: pin this trace if it is the new worst of its
    // latency bucket (ties keep the incumbent, so the table is stable
    // under a steady stream of equal-latency keeps).
    const size_t bucket = latencyBucketIndex(static_cast<uint64_t>(
        std::llround(std::max(0.0, t.latencyNs))));
    std::lock_guard<std::mutex> lock(exemplarMu_);
    ExemplarSlot &e = exemplars_[bucket];
    if (!e.valid || t.latencyNs > e.t.latencyNs) {
        e.valid = true;
        e.t = t;
    }
}

bool
TraceStore::readSlot(size_t idx, StoredTrace *out) const
{
    Slot &s = slots_[idx];
    for (int attempt = 0; attempt < 4; attempt++) {
        const uint64_t before =
            s.seq.load(std::memory_order_acquire);
        if (before == 0 || (before & 1))
            return false;  // Never written, or write in progress.
        loadWords(s.words, out);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (s.seq.load(relaxed_) == before) {
            // Merge the audit side channel if it belongs to this
            // payload generation.
            if (s.annId.load(std::memory_order_acquire) ==
                    out->traceId &&
                out->traceId != 0)
            {
                const uint32_t flags = s.annFlags.load(relaxed_);
                out->auditDone = (flags & 1u) != 0;
                out->audit.mismatch = (flags & 2u) != 0;
                out->audit.oracleDp = (flags & 4u) != 0;
                out->audit.quantized = (flags & 8u) != 0;
                out->audit.gapDecades = s.annGap.load(relaxed_);
                out->audit.oracleWeight = s.annOracleWeight.load(relaxed_);
                out->audit.oracleObs = s.annOracleObs.load(relaxed_);
            }
            return true;
        }
    }
    return false;
}

bool
TraceStore::annotateAudit(uint64_t trace_id, const TraceAuditVerdict &v)
{
    if (trace_id == 0)
        return false;
    bool annotated = false;

    const uint64_t head = head_.load(std::memory_order_acquire);
    const size_t n = std::min<uint64_t>(head, capacity_);
    for (size_t i = 0; i < n; i++) {
        Slot &s = slots_[i];
        const uint64_t before =
            s.seq.load(std::memory_order_acquire);
        if (before == 0 || (before & 1))
            continue;
        // An unchecked id peek is fine: a stale match is filtered by
        // readers re-checking annId against the payload they copied.
        if (loadWord(s.words[kTraceIdWord]) != trace_id)
            continue;
        s.annFlags.store(1u | (v.mismatch ? 2u : 0u) |
                             (v.oracleDp ? 4u : 0u) |
                             (v.quantized ? 8u : 0u),
                         relaxed_);
        s.annGap.store(v.gapDecades, relaxed_);
        s.annOracleWeight.store(v.oracleWeight, relaxed_);
        s.annOracleObs.store(v.oracleObs, relaxed_);
        s.annId.store(trace_id, std::memory_order_release);
        annotated = true;
    }

    std::lock_guard<std::mutex> lock(exemplarMu_);
    for (auto &e : exemplars_) {
        if (!e.valid || e.t.traceId != trace_id)
            continue;
        e.t.auditDone = true;
        e.t.audit = v;
        annotated = true;
    }
    return annotated;
}

bool
TraceStore::find(uint64_t trace_id, StoredTrace *out) const
{
    if (trace_id == 0)
        return false;
    const uint64_t head = head_.load(std::memory_order_acquire);
    const size_t n = std::min<uint64_t>(head, capacity_);
    StoredTrace tmp;
    for (size_t i = 0; i < n; i++) {
        if (readSlot(i, &tmp) && tmp.traceId == trace_id) {
            if (out != nullptr)
                *out = tmp;
            return true;
        }
    }
    std::lock_guard<std::mutex> lock(exemplarMu_);
    for (const auto &e : exemplars_) {
        if (e.valid && e.t.traceId == trace_id) {
            if (out != nullptr)
                *out = e.t;
            return true;
        }
    }
    return false;
}

std::vector<StoredTrace>
TraceStore::snapshot(size_t limit) const
{
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t n = std::min<uint64_t>(head, capacity_);
    std::vector<StoredTrace> out;
    out.reserve(static_cast<size_t>(std::min<uint64_t>(n, limit)));
    StoredTrace tmp;
    for (uint64_t k = 0; k < n && out.size() < limit; k++) {
        // Newest first: walk positions head-1 .. head-n.
        const uint64_t pos = head - 1 - k;
        if (readSlot(pos % capacity_, &tmp))
            out.push_back(tmp);
    }
    return out;
}

TraceStore::Counters
TraceStore::counters() const
{
    Counters c;
    c.considered = considered_.load(relaxed_);
    c.kept = kept_.load(relaxed_);
    c.dropped = dropped_.load(relaxed_);
    c.evicted = evicted_.load(relaxed_);
    c.spansDropped = spansDropped_.load(relaxed_);
    c.capacity = capacity_;
    c.occupancy = static_cast<size_t>(
        std::min<uint64_t>(head_.load(relaxed_), capacity_));
    return c;
}

TraceStore::Exemplar
TraceStore::exemplar(size_t bucket) const
{
    Exemplar ex;
    if (bucket >= kLatencyBuckets)
        return ex;
    std::lock_guard<std::mutex> lock(exemplarMu_);
    const ExemplarSlot &e = exemplars_[bucket];
    if (e.valid) {
        ex.valid = true;
        ex.traceId = e.t.traceId;
        ex.latencyNs = e.t.latencyNs;
    }
    return ex;
}

TraceStore::Exemplar
TraceStore::exemplarAbove(size_t bucket) const
{
    Exemplar ex;
    std::lock_guard<std::mutex> lock(exemplarMu_);
    for (size_t b = bucket + 1; b < kLatencyBuckets; b++) {
        const ExemplarSlot &e = exemplars_[b];
        if (e.valid &&
            (!ex.valid || e.t.latencyNs > ex.latencyNs))
        {
            ex.valid = true;
            ex.traceId = e.t.traceId;
            ex.latencyNs = e.t.latencyNs;
        }
    }
    return ex;
}

namespace
{

/** The keys a trace detail and a capture's "recent" entries share:
 *  what replay reads to re-decode and check one shot. */
template <class Decode>
void
appendDecodeKeys(JsonWriter &w, const Decode &d,
                 std::span<const uint32_t> defects)
{
    w.kv("shot", d.shot);
    w.kv("stream", d.stream);
    w.kv("hw", d.hw);
    w.kv("latency_ns", d.latencyNs);
    w.kv("cycles", d.cycles);
    w.kv("matching_weight", d.matchingWeight);
    w.kv("obs_mask", d.obsMask);
    w.kv("actual_obs", d.actualObs);
    w.kv("gave_up", d.gaveUp);
    w.kv("logical_error", d.logicalError);
    w.key("defects").beginArray();
    for (uint32_t x : defects)
        w.value(uint64_t{x});
    w.endArray();
}

template <class Decode>
std::span<const uint32_t>
inlineDefects(const Decode &d)
{
    return {d.defects, std::min(d.hw, kTraceMaxDefects)};
}

void
appendReasonsJson(JsonWriter &w, uint8_t reasons)
{
    w.beginArray();
    if (reasons & kTraceKeepSlow)
        w.value("slow");
    if (reasons & kTraceKeepGiveUp)
        w.value("give_up");
    if (reasons & kTraceKeepAudit)
        w.value("audit");
    if (reasons & kTraceKeepStride)
        w.value("stride");
    if (reasons & kTraceKeepError)
        w.value("logical_error");
    w.endArray();
}

} // namespace

void
TraceStore::appendSummaryJson(JsonWriter &w,
                              const StoredTrace &t) const
{
    w.beginObject();
    w.kv("trace_id", traceIdHex(t.traceId));
    w.kv("shot", t.shot);
    w.kv("stream", t.stream);
    w.kv("decoder", t.decoder);
    w.kv("hw", t.hw);
    w.kv("latency_ns", t.latencyNs);
    w.kv("outcome", traceOutcomeName(t));
    w.key("reasons");
    appendReasonsJson(w, t.reasons);
    w.kv("spans", uint64_t{t.numSpans});
    w.kv("audited", t.audited);
    if (t.auditDone) {
        w.kv("audit_mismatch", t.audit.mismatch);
        w.kv("audit_weight_gap_decades", t.audit.gapDecades);
    }
    w.endObject();
}

void
TraceStore::appendDetailFields(JsonWriter &w, const StoredTrace &t,
                               std::span<const uint32_t> defects) const
{
    w.kv("trace_schema_version", kTraceSchemaVersion);
    w.kv("trace_id", traceIdHex(t.traceId));
    w.kv("decoder", t.decoder);
    appendDecodeKeys(w, t, defects);
    w.kv("outcome", traceOutcomeName(t));
    w.key("reasons");
    appendReasonsJson(w, t.reasons);

    w.key("audit").beginObject();
    w.kv("sampled", t.audited);
    w.kv("done", t.auditDone);
    if (t.auditDone) {
        w.kv("mismatch", t.audit.mismatch);
        w.kv("weight_gap_decades", t.audit.gapDecades);
        w.kv("oracle", t.audit.oracleDp ? "dp" : "mwpm");
        w.kv("quantized", t.audit.quantized);
        w.kv("oracle_weight", t.audit.oracleWeight);
        w.kv("oracle_obs", t.audit.oracleObs);
    }
    w.endObject();

    w.key("spans").beginArray();
    for (uint32_t i = 0; i < t.numSpans && i < kTraceMaxSpans; i++) {
        const TraceSpan &sp = t.spans[i];
        w.beginObject();
        w.kv("stage",
             perfStageName(static_cast<PerfStage>(sp.stage)));
        w.kv("shot", int64_t{sp.shot});
        w.kv("start_ns", uint64_t{sp.startNs});
        w.kv("dur_ns", uint64_t{sp.durNs});
        w.endObject();
    }
    w.endArray();
    w.kv("dropped_spans", uint64_t{t.droppedSpans});

    std::lock_guard<std::mutex> lock(runInfoMu_);
    if (!contextJson_.empty())
        w.key("context").raw(contextJson_);
    if (!decoderJson_.empty())
        w.key("decoder_config").raw(decoderJson_);
}

std::string
TraceStore::indexJson(const TraceQuery &q) const
{
    JsonWriter w;
    w.beginObject();
    w.kv("trace_schema_version", kTraceSchemaVersion);
    const Counters c = counters();
    w.kv("kept", c.kept);
    w.kv("occupancy", uint64_t{c.occupancy});
    w.key("traces").beginArray();
    size_t emitted = 0;
    for (const StoredTrace &t : snapshot()) {
        if (emitted >= q.limit)
            break;
        if (t.latencyNs < q.minNs)
            continue;
        if (!q.decoder.empty() && q.decoder != t.decoder)
            continue;
        if (!q.outcome.empty() && q.outcome != traceOutcomeName(t))
            continue;
        appendSummaryJson(w, t);
        emitted++;
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
TraceStore::detailJson(uint64_t trace_id) const
{
    StoredTrace t;
    if (!find(trace_id, &t))
        return "";
    JsonWriter w;
    w.beginObject();
    appendDetailFields(w, t, inlineDefects(t));
    w.endObject();
    return w.str();
}

void
TraceStore::setCapturePath(std::string path)
{
    std::lock_guard<std::mutex> lock(captureMu_);
    capturePath_ = std::move(path);
    captureArmed_.store(!capturePath_.empty() || !captureDir_.empty(),
                        relaxed_);
}

void
TraceStore::setCaptureDir(std::string dir, size_t max_files,
                          uint64_t min_interval_ms)
{
    std::lock_guard<std::mutex> lock(captureMu_);
    captureDir_ = std::move(dir);
    captureMaxFiles_ = max_files;
    captureMinInterval_ = std::chrono::milliseconds(min_interval_ms);
    captureDirSeq_ = 0;
    lastCapture_.reset();
    captureArmed_.store(!capturePath_.empty() || !captureDir_.empty(),
                        relaxed_);
}

std::string
TraceStore::claimCapturePath()
{
    std::lock_guard<std::mutex> lock(captureMu_);
    if (captureDir_.empty()) {
        // One-shot: the first trigger takes the path and disarms, so
        // later failures never overwrite the first piece of evidence.
        std::string path = std::move(capturePath_);
        capturePath_.clear();
        captureArmed_.store(false, relaxed_);
        return path;
    }
    // Numbered files, rate-limited so a pathological run cannot flood
    // the filesystem.
    const auto now = std::chrono::steady_clock::now();
    if (captureDirSeq_ >= captureMaxFiles_ ||
        (lastCapture_ && now - *lastCapture_ < captureMinInterval_)) {
        capturesRateLimited_.fetch_add(1, relaxed_);
        return "";
    }
    lastCapture_ = now;
    char name[32];
    std::snprintf(name, sizeof(name), "/capture-%03llu.json",
                  static_cast<unsigned long long>(captureDirSeq_++));
    return captureDir_ + name;
}

bool
TraceStore::capture(const StoredTrace &t,
                    std::span<const uint32_t> defects, const char *reason,
                    std::span<const RecentDecode> recent, size_t oldest)
{
    const std::string path = claimCapturePath();
    if (path.empty())
        return false;

    JsonWriter w;
    w.beginObject();
    appendDetailFields(w, t, defects);
    w.kv("trigger", reason);
    if (!recent.empty()) {
        w.key("recent").beginArray();
        for (size_t k = 0; k < recent.size(); k++) {
            const RecentDecode &r = recent[(oldest + k) % recent.size()];
            if (r.stream != t.stream)
                continue;
            w.beginObject();
            if (r.traceId != 0)
                w.kv("trace_id", traceIdHex(r.traceId));
            appendDecodeKeys(w, r, inlineDefects(r));
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        error("trace store: cannot open capture file: " + path);
        return false;
    }
    std::fputs(w.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    capturesWritten_.fetch_add(1, relaxed_);
    inform(std::string("trace store: wrote capture (") + reason +
           ") to " + path);
    return true;
}

void
TraceStore::writeMetrics(PrometheusWriter &w) const
{
    const Counters c = counters();
    const TraceRetentionConfig cfg = traceRetention();
    w.gauge("astrea_trace_enabled",
            "1 while per-decode tail tracing is active",
            cfg.enabled ? 1.0 : 0.0);
    w.counter("astrea_trace_considered_total",
              "Decodes completed with tracing active", c.considered);
    w.counter("astrea_trace_kept_total",
              "Traces retained by the tail-sampling verdict", c.kept);
    w.counter("astrea_trace_dropped_total",
              "Traces discarded by the tail-sampling verdict",
              c.dropped);
    w.counter("astrea_trace_evicted_total",
              "Kept traces overwritten by ring wraparound",
              c.evicted);
    w.counter("astrea_trace_spans_dropped_total",
              "Stage spans lost to per-trace span caps",
              c.spansDropped);
    w.gauge("astrea_trace_store_occupancy",
            "Traces currently resident in the ring",
            static_cast<double>(c.occupancy));
    w.gauge("astrea_trace_store_capacity", "Trace ring capacity",
            static_cast<double>(c.capacity));
    w.gauge("astrea_trace_tail_threshold_ns",
            "Effective slow-trace latency threshold (0 = auto p99 "
            "not yet established)",
            traceEffectiveTailNs());
    w.gauge("astrea_trace_head_stride",
            "Head-sampling stride (every Nth decode kept; 0 = off)",
            static_cast<double>(cfg.headStride));
}

void
TraceStore::writeStatusz(JsonWriter &w) const
{
    const Counters c = counters();
    const TraceRetentionConfig cfg = traceRetention();
    w.kv("enabled", cfg.enabled);
    w.kv("considered", c.considered);
    w.kv("kept", c.kept);
    w.kv("dropped", c.dropped);
    w.kv("evicted", c.evicted);
    w.kv("spans_dropped", c.spansDropped);
    w.kv("occupancy", uint64_t{c.occupancy});
    w.kv("capacity", uint64_t{c.capacity});
    w.kv("tail_threshold_ns", cfg.tailThresholdNs);
    w.kv("tail_effective_ns", traceEffectiveTailNs());
    w.kv("head_stride", cfg.headStride);
}

TraceStore &
TraceStore::global()
{
    static TraceStore store(static_cast<size_t>(env::getUint(
        "ASTREA_TRACE_RING", 1024, 1)));
    static const bool armed = [] {
        store.setCapturePath(env::getString("ASTREA_CAPTURE_PATH", ""));
        store.setCaptureDir(
            env::getString("ASTREA_CAPTURE_DIR", ""),
            static_cast<size_t>(
                env::getUint("ASTREA_CAPTURE_MAX_FILES", 32, 1)),
            env::getUint("ASTREA_CAPTURE_MIN_INTERVAL_MS", 1000));
        return true;
    }();
    (void)armed;
    return store;
}

} // namespace telemetry
} // namespace astrea
