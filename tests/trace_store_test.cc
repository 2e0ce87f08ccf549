/**
 * @file
 * Tests for tail-sampled decode tracing: the trace store's ring and
 * exemplar table (telemetry/trace_store.hh), the per-thread tracer's
 * retention verdicts and span accounting (telemetry/decode_trace.hh),
 * the deterministic trace-id scheme, the JSON endpoints' shape, and
 * LatencyHistogram::bucketIndex edge cases.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "harness/latency_stats.hh"
#include "telemetry/decode_trace.hh"
#include "telemetry/json_value.hh"
#include "telemetry/trace_store.hh"

using namespace astrea;
using namespace astrea::telemetry;

namespace
{

StoredTrace
makeTrace(uint64_t id, double latency_ns,
          const char *decoder = "astrea")
{
    StoredTrace t;
    t.traceId = id;
    t.shot = id;  // Any distinct value.
    t.latencyNs = latency_ns;
    t.reasons = kTraceKeepSlow;
    std::snprintf(t.decoder, sizeof(t.decoder), "%s", decoder);
    return t;
}

TEST(TraceIdTest, HexRoundTripAndParsing)
{
    EXPECT_EQ(traceIdHex(0x00c0ffee00c0ffeeull), "00c0ffee00c0ffee");
    EXPECT_EQ(traceIdHex(1), "0000000000000001");
    EXPECT_EQ(parseTraceIdHex("00c0ffee00c0ffee"),
              0x00c0ffee00c0ffeeull);
    EXPECT_EQ(parseTraceIdHex("0xDEADBEEF"), 0xDEADBEEFull);
    EXPECT_EQ(parseTraceIdHex(""), 0u);
    EXPECT_EQ(parseTraceIdHex("zz"), 0u);
    EXPECT_EQ(parseTraceIdHex("12 34"), 0u);
}

TEST(TraceStoreTest, KeepFindAndCounters)
{
    TraceStore store(8);
    EXPECT_FALSE(store.find(42, nullptr));

    store.noteConsidered();
    store.keep(makeTrace(42, 500.0));
    store.noteConsidered();
    store.noteDropped();

    StoredTrace out;
    ASSERT_TRUE(store.find(42, &out));
    EXPECT_EQ(out.traceId, 42u);
    EXPECT_DOUBLE_EQ(out.latencyNs, 500.0);
    EXPECT_STREQ(out.decoder, "astrea");

    const TraceStore::Counters c = store.counters();
    EXPECT_EQ(c.considered, 2u);
    EXPECT_EQ(c.kept, 1u);
    EXPECT_EQ(c.dropped, 1u);
    EXPECT_EQ(c.evicted, 0u);
    EXPECT_EQ(c.occupancy, 1u);
    EXPECT_EQ(c.capacity, 8u);
}

TEST(TraceStoreTest, RingEvictsOldestAndCounts)
{
    TraceStore store(4);
    // Same latency so every trace lands in the same exemplar bucket
    // and eviction is decided purely by the ring.
    for (uint64_t id = 1; id <= 10; id++)
        store.keep(makeTrace(id, 100.0));

    const TraceStore::Counters c = store.counters();
    EXPECT_EQ(c.kept, 10u);
    EXPECT_EQ(c.evicted, 6u);
    EXPECT_EQ(c.occupancy, 4u);

    // The newest four live in the ring; trace 1 only survives if the
    // exemplar table pinned it (it did: first keep of its bucket).
    for (uint64_t id = 7; id <= 10; id++)
        EXPECT_TRUE(store.find(id, nullptr)) << id;
    // Traces 2..6 were evicted and never beat the bucket exemplar.
    for (uint64_t id = 2; id <= 6; id++)
        EXPECT_FALSE(store.find(id, nullptr)) << id;

    // Newest first in the snapshot.
    const auto snap = store.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap[0].traceId, 10u);
    EXPECT_EQ(snap[3].traceId, 7u);
}

TEST(TraceStoreTest, ExemplarKeepsWorstPerBucketTieKeepsIncumbent)
{
    TraceStore store(64);

    // All latencies below live in the same log2 bucket [512, 1024).
    store.keep(makeTrace(1, 600.0));
    const size_t b = latencyBucketIndex(600);
    TraceStore::Exemplar e = store.exemplar(b);
    ASSERT_TRUE(e.valid);
    EXPECT_EQ(e.traceId, 1u);

    // A slower trace in the same bucket replaces the exemplar...
    store.keep(makeTrace(2, 1000.0));
    ASSERT_EQ(latencyBucketIndex(1000), b);
    e = store.exemplar(b);
    EXPECT_EQ(e.traceId, 2u);
    EXPECT_DOUBLE_EQ(e.latencyNs, 1000.0);

    // ...a tie keeps the incumbent (strictly-greater replacement)...
    store.keep(makeTrace(3, 1000.0));
    e = store.exemplar(b);
    EXPECT_EQ(e.traceId, 2u);

    // ...and a faster one never does.
    store.keep(makeTrace(4, 700.0));
    e = store.exemplar(b);
    EXPECT_EQ(e.traceId, 2u);

    // An exemplar stays resolvable by id even after ring eviction:
    // the table pins a full copy.
    StoredTrace out;
    ASSERT_TRUE(store.find(2, &out));
    EXPECT_DOUBLE_EQ(out.latencyNs, 1000.0);
}

TEST(TraceStoreTest, ExemplarAboveCoversOverflowBucket)
{
    TraceStore store(8);
    store.keep(makeTrace(1, 50.0));
    store.keep(makeTrace(2, 1e9));  // Far beyond the last log2 bucket.

    const size_t low = latencyBucketIndex(50);
    TraceStore::Exemplar inf = store.exemplarAbove(low);
    ASSERT_TRUE(inf.valid);
    EXPECT_EQ(inf.traceId, 2u);
    EXPECT_DOUBLE_EQ(inf.latencyNs, 1e9);

    // Nothing above the slowest trace's own bucket.
    inf = store.exemplarAbove(kLatencyBuckets - 1);
    EXPECT_FALSE(inf.valid);
}

TEST(TraceStoreTest, AnnotateAuditReachesRingAndExemplar)
{
    TraceStore store(8);
    StoredTrace t = makeTrace(7, 900.0);
    t.audited = true;
    store.keep(t);

    TraceAuditVerdict v;
    EXPECT_FALSE(store.annotateAudit(999, v));
    v.mismatch = true;
    v.gapDecades = 0.25;
    v.oracleWeight = 12.5;
    v.oracleObs = 0x2;
    v.oracleDp = true;
    v.quantized = false;
    EXPECT_TRUE(store.annotateAudit(7, v));

    StoredTrace out;
    ASSERT_TRUE(store.find(7, &out));
    EXPECT_TRUE(out.auditDone);
    EXPECT_TRUE(out.audit.mismatch);
    EXPECT_DOUBLE_EQ(out.audit.gapDecades, 0.25);
    EXPECT_DOUBLE_EQ(out.audit.oracleWeight, 12.5);
    EXPECT_EQ(out.audit.oracleObs, 0x2u);
    EXPECT_TRUE(out.audit.oracleDp);
    EXPECT_FALSE(out.audit.quantized);
}

TEST(TraceStoreTest, IndexJsonFilters)
{
    TraceStore store(16);
    StoredTrace slow = makeTrace(1, 5000.0, "astrea");
    StoredTrace fast = makeTrace(2, 100.0, "astrea");
    StoredTrace other = makeTrace(3, 7000.0, "mwpm");
    other.gaveUp = true;
    other.reasons = kTraceKeepGiveUp;
    store.keep(slow);
    store.keep(fast);
    store.keep(other);

    auto count = [&](const TraceQuery &q) {
        JsonValue doc;
        EXPECT_TRUE(parseJson(store.indexJson(q), doc));
        EXPECT_EQ(doc["trace_schema_version"].asUint(0),
                  kTraceSchemaVersion);
        return doc["traces"].arr.size();
    };

    EXPECT_EQ(count(TraceQuery{}), 3u);

    TraceQuery min_ns;
    min_ns.minNs = 1000.0;
    EXPECT_EQ(count(min_ns), 2u);

    TraceQuery by_decoder;
    by_decoder.decoder = "mwpm";
    EXPECT_EQ(count(by_decoder), 1u);

    TraceQuery by_outcome;
    by_outcome.outcome = "give_up";
    EXPECT_EQ(count(by_outcome), 1u);

    TraceQuery limited;
    limited.limit = 2;
    EXPECT_EQ(count(limited), 2u);

    TraceQuery none;
    none.decoder = "nope";
    EXPECT_EQ(count(none), 0u);
}

TEST(TraceStoreTest, DetailJsonCarriesSpansAuditAndRunInfo)
{
    TraceStore store(8);
    store.setRunInfo("{\"distance\":5,\"p\":0.001}",
                     "{\"name\":\"astrea\"}");

    StoredTrace t = makeTrace(9, 4000.0);
    t.hw = 2;
    t.defects[0] = 11;
    t.defects[1] = 23;
    t.audited = true;
    t.numSpans = 2;
    t.spans[0] = TraceSpan{
        static_cast<uint8_t>(PerfStage::Batch), -1, 0, 9000};
    t.spans[1] = TraceSpan{
        static_cast<uint8_t>(PerfStage::Matching), 3, 1500, 3000};
    store.keep(t);
    TraceAuditVerdict v;
    v.gapDecades = 0.125;
    v.oracleWeight = 10.0;
    v.oracleDp = true;
    ASSERT_TRUE(store.annotateAudit(9, v));

    const std::string text = store.detailJson(9);
    ASSERT_FALSE(text.empty());
    JsonValue doc;
    ASSERT_TRUE(parseJson(text, doc));
    EXPECT_EQ(doc["trace_id"].asString(""), traceIdHex(9));
    EXPECT_EQ(doc["hw"].asUint(0), 2u);
    ASSERT_EQ(doc["spans"].arr.size(), 2u);
    EXPECT_EQ(doc["spans"].arr[0]["stage"].asString(""), "batch");
    EXPECT_DOUBLE_EQ(doc["spans"].arr[0]["shot"].asNumber(0.0), -1.0);
    EXPECT_EQ(doc["spans"].arr[1]["stage"].asString(""), "matching");
    EXPECT_EQ(doc["spans"].arr[1]["dur_ns"].asUint(0), 3000u);
    ASSERT_EQ(doc["defects"].arr.size(), 2u);
    EXPECT_EQ(doc["defects"].arr[1].asUint(0), 23u);
    EXPECT_TRUE(doc["audit"]["done"].asBool(false));
    EXPECT_DOUBLE_EQ(
        doc["audit"]["weight_gap_decades"].asNumber(-1.0), 0.125);
    EXPECT_EQ(doc["audit"]["oracle"].asString(""), "dp");
    EXPECT_TRUE(doc["audit"]["quantized"].asBool(false));
    // The embedded run info is what `replay --trace-id` rebuilds from.
    EXPECT_EQ(doc["context"]["distance"].asUint(0), 5u);
    EXPECT_EQ(doc["decoder_config"]["name"].asString(""), "astrea");

    EXPECT_TRUE(store.detailJson(12345).empty());
}

/** A trace whose every field derives from its id, so a copy that
 *  mixes two writers' payloads cannot pass selfConsistent(). */
StoredTrace
derivedTrace(uint64_t id)
{
    StoredTrace t;
    t.traceId = id;
    t.shot = id * 3 + 1;
    t.stream = static_cast<uint32_t>(id % 5);
    t.hw = static_cast<uint32_t>(id % kTraceMaxDefects);
    std::snprintf(t.decoder, sizeof(t.decoder), "dec%llu",
                  static_cast<unsigned long long>(id % 1000));
    t.latencyNs = 100.0 + static_cast<double>(id % 997);
    t.cycles = id ^ 0x5a5a;
    t.matchingWeight = 0.5 * static_cast<double>(id);
    t.obsMask = ~id;
    t.actualObs = id * 0x9e3779b97f4a7c15ull;
    t.reasons = kTraceKeepSlow;
    t.numSpans = static_cast<uint32_t>(id % kTraceMaxSpans);
    t.droppedSpans = static_cast<uint32_t>(id % 3);
    for (uint32_t k = 0; k < kTraceMaxSpans; k++) {
        t.spans[k].stage = static_cast<uint8_t>(k % 4);
        t.spans[k].shot = static_cast<int32_t>(id % 64);
        t.spans[k].startNs = static_cast<uint32_t>(id + k);
        t.spans[k].durNs = static_cast<uint32_t>(id * 7 + k);
    }
    for (uint32_t k = 0; k < kTraceMaxDefects; k++)
        t.defects[k] = static_cast<uint32_t>(id * 11 + k);
    return t;
}

/** Every field of t equals derivedTrace(t.traceId)'s. */
bool
selfConsistent(const StoredTrace &t)
{
    const StoredTrace w = derivedTrace(t.traceId);
    bool ok = t.shot == w.shot && t.stream == w.stream &&
              t.hw == w.hw &&
              std::memcmp(t.decoder, w.decoder, sizeof(t.decoder)) == 0 &&
              t.latencyNs == w.latencyNs && t.cycles == w.cycles &&
              t.matchingWeight == w.matchingWeight &&
              t.obsMask == w.obsMask && t.actualObs == w.actualObs &&
              t.reasons == w.reasons && t.numSpans == w.numSpans &&
              t.droppedSpans == w.droppedSpans && !t.gaveUp &&
              !t.audited && !t.auditDone;
    for (uint32_t k = 0; k < kTraceMaxSpans; k++) {
        ok = ok && t.spans[k].stage == w.spans[k].stage &&
             t.spans[k].shot == w.spans[k].shot &&
             t.spans[k].startNs == w.spans[k].startNs &&
             t.spans[k].durNs == w.spans[k].durNs;
    }
    for (uint32_t k = 0; k < kTraceMaxDefects; k++)
        ok = ok && t.defects[k] == w.defects[k];
    return ok;
}

TEST(TraceStoreTest, LappingWritersNeverPublishTornCopies)
{
    // Four writers keep() into a four-slot ring, so they lap each
    // other on every slot, while readers copy traces out through
    // find() and indexJson(). Every copy a reader accepts must be one
    // writer's whole payload. The tsan CI job runs this binary, which
    // also holds the payload copy itself to being race-free.
    constexpr uint64_t kWriters = 4;
    constexpr uint64_t kPerWriter = 20000;
    TraceStore store(4);
    std::atomic<uint64_t> last_id{0};
    std::atomic<bool> done{false};
    std::atomic<uint64_t> torn{0};
    std::atomic<uint64_t> accepted{0};

    auto check_find = [&] {
        StoredTrace out;
        do {
            const uint64_t id = last_id.load(std::memory_order_relaxed);
            if (id == 0 || !store.find(id, &out))
                continue;
            accepted.fetch_add(1, std::memory_order_relaxed);
            if (out.traceId != id || !selfConsistent(out))
                torn.fetch_add(1, std::memory_order_relaxed);
        } while (!done.load(std::memory_order_acquire));
    };
    auto check_index = [&] {
        do {
            JsonValue doc;
            if (!parseJson(store.indexJson(TraceQuery{}), doc)) {
                torn.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            for (const JsonValue &e : doc["traces"].arr) {
                accepted.fetch_add(1, std::memory_order_relaxed);
                const StoredTrace w = derivedTrace(
                    parseTraceIdHex(e["trace_id"].asString()));
                if (e["shot"].asUint(0) != w.shot ||
                    e["stream"].asUint(~0ull) != w.stream ||
                    e["hw"].asUint(~0ull) != w.hw ||
                    e["decoder"].asString() != w.decoder ||
                    e["latency_ns"].asNumber(-1.0) != w.latencyNs ||
                    e["spans"].asUint(~0ull) != w.numSpans)
                {
                    torn.fetch_add(1, std::memory_order_relaxed);
                }
            }
        } while (!done.load(std::memory_order_acquire));
    };

    std::vector<std::thread> writers;
    for (uint64_t w = 0; w < kWriters; w++) {
        writers.emplace_back([&, w] {
            for (uint64_t k = 0; k < kPerWriter; k++) {
                const uint64_t id = 1 + w + kWriters * k;
                store.keep(derivedTrace(id));
                last_id.store(id, std::memory_order_relaxed);
            }
        });
    }
    std::thread finder(check_find);
    std::thread indexer(check_index);
    for (std::thread &t : writers)
        t.join();
    done.store(true, std::memory_order_release);
    finder.join();
    indexer.join();

    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(accepted.load(), 0u);
    // A writer that loses its slot to a lapping writer drops its
    // trace; every keep() is accounted for exactly once.
    const TraceStore::Counters c = store.counters();
    EXPECT_EQ(c.kept + c.dropped, kWriters * kPerWriter);
    EXPECT_EQ(c.occupancy, 4u);
}

/** This process's resident set in pages (/proc/self/statm field 2);
 *  -1 when it cannot be read. */
long
residentPages()
{
    std::ifstream statm("/proc/self/statm");
    long size = 0;
    long resident = -1;
    statm >> size >> resident;
    return statm ? resident : -1;
}

TEST(TraceStoreTest, SlotPagesAreResidentOnlyOnceKept)
{
    // The slot table is address space until a trace is written into a
    // slot: taking a 16,384-slot table (about 13 MiB) makes almost
    // nothing resident, keeping 64 traces makes only their slots'
    // pages resident, and a reconfigure gives those pages back. Only
    // deltas are asserted, against sizes derived from the table, so
    // the bounds hold whatever else the process has mapped.
    if (residentPages() < 0)
        GTEST_SKIP() << "/proc/self/statm is not readable";
    constexpr size_t kCapacity = 16384;
    constexpr size_t kKept = 64;
    const long page = sysconf(_SC_PAGESIZE);
    const long table =
        static_cast<long>(kCapacity * TraceStore::kSlotBytes) / page;
    // The kept slots are contiguous from the table's start: they cover
    // `whole` pages entirely and reach into at most two more.
    const long whole =
        static_cast<long>(kKept * TraceStore::kSlotBytes) / page;
    // Room for the test's own churn and a sanitizer's shadow of the
    // written slots: far below a huge page or a quarter of the table.
    const long slack = (1L << 20) / page;
    ASSERT_GT(table / 4, whole + 2 + slack);

    // On the heap, with the exemplar table resident before any delta.
    auto store = std::make_unique<TraceStore>(1);
    const long before = residentPages();
    store->configure(kCapacity);
    const long configured = residentPages();
    EXPECT_LT(configured - before, table / 4);

    for (uint64_t id = 1; id <= kKept; id++)
        store->keep(makeTrace(id, 100.0));
    ASSERT_EQ(store->counters().kept, kKept);
    const long kept = residentPages();
    EXPECT_GE(kept - configured, whole);  // The probe sees them at all.
    EXPECT_LE(kept - configured, whole + 2 + slack);

    // The written pages go back with the old table (net of what a
    // sanitizer maps for the new one).
    store->configure(kCapacity);
    const long reconfigured = residentPages();
    EXPECT_LE(reconfigured - configured, slack);
    EXPECT_GE(kept - reconfigured, whole / 2);
}

TEST(TraceStoreTest, ReconfigureGivesAnEmptyWritableStore)
{
    // A reconfigured store sees none of the old traces, counts from 0
    // and keeps the next trace. A reused table would fail the last
    // part: a slot whose old sequence exceeds 2 x the new position
    // drops every keep into it.
    TraceStore store(8);
    uint64_t id = 1;
    auto fill = [&](size_t n) {
        for (size_t k = 0; k < n; k++, id++) {
            store.noteConsidered();
            store.keep(makeTrace(id, 100.0 * static_cast<double>(id)));
        }
        store.noteSpansDropped(3);
    };
    fill(20);
    ASSERT_TRUE(store.find(id - 1, nullptr));

    for (size_t capacity : {8, 64, 4}) {
        SCOPED_TRACE(capacity);
        const uint64_t old_ids = id;
        store.configure(capacity);
        for (uint64_t old = 1; old < old_ids; old++)
            EXPECT_FALSE(store.find(old, nullptr)) << old;
        EXPECT_TRUE(store.snapshot().empty());
        JsonValue doc;
        ASSERT_TRUE(parseJson(store.indexJson(TraceQuery{}), doc));
        EXPECT_TRUE(doc["traces"].arr.empty());
        EXPECT_EQ(doc["kept"].asUint(~0ull), 0u);
        TraceStore::Counters c = store.counters();
        EXPECT_EQ(c.considered, 0u);
        EXPECT_EQ(c.kept, 0u);
        EXPECT_EQ(c.dropped, 0u);
        EXPECT_EQ(c.evicted, 0u);
        EXPECT_EQ(c.spansDropped, 0u);
        EXPECT_EQ(c.occupancy, 0u);
        EXPECT_EQ(c.capacity, capacity);

        store.keep(makeTrace(id, 100.0));
        c = store.counters();
        EXPECT_EQ(c.kept, 1u);
        EXPECT_EQ(c.dropped, 0u);
        StoredTrace out;
        ASSERT_TRUE(store.find(id, &out));
        EXPECT_EQ(out.traceId, id);
        id++;
        // Lap the new table twice before the next reconfigure.
        fill(2 * capacity);
    }
}

TEST(TraceStoreTest, OverflowingCapacityThrows)
{
    // --trace-ring / ASTREA_TRACE_RING can ask for more slots than a
    // size_t of bytes holds. Two slots past the limit, the byte size
    // wraps to under two slots; configure must still throw, and the
    // store must configure again afterwards.
    TraceStore store(4);
    EXPECT_THROW(store.configure(SIZE_MAX / TraceStore::kSlotBytes + 2),
                 std::bad_alloc);
    store.configure(4);
    store.keep(makeTrace(1, 100.0));
    EXPECT_TRUE(store.find(1, nullptr));
}

/** Tracer fixture: isolates the process-wide retention config. */
class DecodeTracerTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        TraceStore::global().configure(64);
        TraceRetentionConfig cfg;
        cfg.enabled = true;
        cfg.tailThresholdNs = 1000.0;
        cfg.headStride = 0;  // No head sampling unless a test asks.
        setTraceRetention(cfg);
        setTraceAutoTailNs(0.0);
    }

    void TearDown() override
    {
        TraceRetentionConfig cfg;
        cfg.enabled = false;
        setTraceRetention(cfg);
        setTraceAutoTailNs(0.0);
    }

    uint64_t finish(DecodeTracer &tracer, uint32_t shot_idx,
                    const TraceShotOutcome &o)
    {
        return tracer.finishShot(shot_idx, o);
    }
};

TEST_F(DecodeTracerTest, RetentionVerdictsPerReason)
{
    DecodeTracer &tracer = decodeTracer();
    tracer.beginBatch(0, 0, "astrea", 1234);
    ASSERT_TRUE(tracer.active());

    // Fast, clean, unaudited: dropped.
    TraceShotOutcome ok;
    ok.latencyNs = 10.0;
    EXPECT_EQ(finish(tracer, 0, ok), 0u);

    // Slow: kept with the slow reason.
    TraceShotOutcome slow;
    slow.latencyNs = 5000.0;
    const uint64_t slow_id = finish(tracer, 1, slow);
    ASSERT_NE(slow_id, 0u);
    StoredTrace out;
    ASSERT_TRUE(TraceStore::global().find(slow_id, &out));
    EXPECT_EQ(out.reasons, kTraceKeepSlow);
    EXPECT_STREQ(out.decoder, "astrea");

    // Give-up, logical error and audit sampling each retain.
    TraceShotOutcome gave;
    gave.latencyNs = 10.0;
    gave.gaveUp = true;
    const uint64_t gave_id = finish(tracer, 2, gave);
    ASSERT_NE(gave_id, 0u);
    ASSERT_TRUE(TraceStore::global().find(gave_id, &out));
    EXPECT_EQ(out.reasons, kTraceKeepGiveUp);

    TraceShotOutcome err;
    err.latencyNs = 10.0;
    err.logicalError = true;
    const uint64_t err_id = finish(tracer, 3, err);
    ASSERT_NE(err_id, 0u);
    ASSERT_TRUE(TraceStore::global().find(err_id, &out));
    EXPECT_EQ(out.reasons, kTraceKeepError);

    TraceShotOutcome audited;
    audited.latencyNs = 10.0;
    audited.audited = true;
    const uint64_t audit_id = finish(tracer, 4, audited);
    ASSERT_NE(audit_id, 0u);
    ASSERT_TRUE(TraceStore::global().find(audit_id, &out));
    EXPECT_EQ(out.reasons, kTraceKeepAudit);
    EXPECT_TRUE(out.audited);

    tracer.endBatch();
    EXPECT_FALSE(tracer.active());
}

TEST_F(DecodeTracerTest, HeadStrideKeepsEveryNth)
{
    TraceRetentionConfig cfg;
    cfg.enabled = true;
    cfg.tailThresholdNs = 1e12;  // Nothing is "slow".
    cfg.headStride = 1;          // ...but every decode is kept.
    setTraceRetention(cfg);

    DecodeTracer &tracer = decodeTracer();
    tracer.beginBatch(0, 100, "astrea", 99);
    TraceShotOutcome ok;
    ok.latencyNs = 5.0;
    for (uint32_t i = 0; i < 3; i++) {
        const uint64_t id = finish(tracer, i, ok);
        ASSERT_NE(id, 0u) << i;
        StoredTrace out;
        ASSERT_TRUE(TraceStore::global().find(id, &out));
        EXPECT_EQ(out.reasons, kTraceKeepStride);
        EXPECT_EQ(out.shot, 100u + i);
    }
    tracer.endBatch();
}

TEST_F(DecodeTracerTest, TraceIdsDeterministicPerSeedAndShot)
{
    DecodeTracer &tracer = decodeTracer();
    tracer.beginBatch(1, 500, "astrea", 42);
    const uint64_t a0 = tracer.shotId(0);
    const uint64_t a1 = tracer.shotId(1);
    tracer.endBatch();

    // Same seed and base shot: identical ids (replayable); ids are
    // distinct across shots and never 0.
    tracer.beginBatch(1, 500, "astrea", 42);
    EXPECT_EQ(tracer.shotId(0), a0);
    EXPECT_EQ(tracer.shotId(1), a1);
    EXPECT_NE(a0, a1);
    EXPECT_NE(a0, 0u);
    tracer.endBatch();

    // Different seed: different ids.
    tracer.beginBatch(1, 500, "astrea", 43);
    EXPECT_NE(tracer.shotId(0), a0);
    tracer.endBatch();
}

TEST_F(DecodeTracerTest, SpansAttachToTheirShotWithBatchEnvelope)
{
    DecodeTracer &tracer = decodeTracer();
    tracer.beginBatch(0, 0, "astrea", 7);

    tracer.stageBegin(PerfStage::Batch);

    tracer.shotBegin(0);
    tracer.stageBegin(PerfStage::Gather);
    tracer.stageEnd(PerfStage::Gather);

    tracer.shotBegin(1);
    tracer.stageBegin(PerfStage::Matching);
    tracer.stageEnd(PerfStage::Matching);
    tracer.stageBegin(PerfStage::Verdict);
    tracer.stageEnd(PerfStage::Verdict);

    tracer.stageEnd(PerfStage::Batch);

    TraceShotOutcome slow;
    slow.latencyNs = 9000.0;
    const uint64_t id = finish(tracer, 1, slow);
    ASSERT_NE(id, 0u);

    StoredTrace out;
    ASSERT_TRUE(TraceStore::global().find(id, &out));
    // Batch envelope first, then only shot 1's spans — shot 0's
    // gather span belongs to a different (dropped) trace.
    ASSERT_EQ(out.numSpans, 3u);
    EXPECT_EQ(out.spans[0].stage,
              static_cast<uint8_t>(PerfStage::Batch));
    EXPECT_EQ(out.spans[0].shot, -1);
    EXPECT_EQ(out.spans[1].stage,
              static_cast<uint8_t>(PerfStage::Matching));
    EXPECT_EQ(out.spans[1].shot, 1);
    EXPECT_EQ(out.spans[2].stage,
              static_cast<uint8_t>(PerfStage::Verdict));
    EXPECT_EQ(out.spans[2].shot, 1);
    EXPECT_EQ(out.droppedSpans, 0u);
    tracer.endBatch();
}

TEST_F(DecodeTracerTest, DisabledTracerRecordsNothing)
{
    TraceRetentionConfig cfg;
    cfg.enabled = false;
    setTraceRetention(cfg);

    TraceStore::global().configure(16);
    DecodeTracer &tracer = decodeTracer();
    tracer.beginBatch(0, 0, "astrea", 1);
    EXPECT_FALSE(tracer.active());
    TraceShotOutcome slow;
    slow.latencyNs = 1e9;
    slow.gaveUp = true;
    EXPECT_EQ(finish(tracer, 0, slow), 0u);
    tracer.endBatch();
    EXPECT_EQ(TraceStore::global().counters().considered, 0u);
}

TEST_F(DecodeTracerTest, AutoTailUsedWhenThresholdIsZero)
{
    TraceRetentionConfig cfg;
    cfg.enabled = true;
    cfg.tailThresholdNs = 0.0;  // Auto.
    cfg.headStride = 0;
    setTraceRetention(cfg);
    setTraceAutoTailNs(200.0);
    EXPECT_DOUBLE_EQ(traceEffectiveTailNs(), 200.0);

    DecodeTracer &tracer = decodeTracer();
    tracer.beginBatch(0, 0, "astrea", 5);
    TraceShotOutcome fast;
    fast.latencyNs = 100.0;
    EXPECT_EQ(finish(tracer, 0, fast), 0u);
    TraceShotOutcome slow;
    slow.latencyNs = 300.0;
    EXPECT_NE(finish(tracer, 1, slow), 0u);
    tracer.endBatch();

    // An explicit threshold wins over the published p99.
    cfg.tailThresholdNs = 1000.0;
    setTraceRetention(cfg);
    EXPECT_DOUBLE_EQ(traceEffectiveTailNs(), 1000.0);
}

TEST(LatencyHistogramTest, BucketIndexEdgeCases)
{
    LatencyHistogram h(50.0, 10000.0);  // 200 buckets of 50 ns.
    ASSERT_EQ(h.numBuckets(), 200u);

    EXPECT_EQ(h.bucketIndex(0.0), 0u);
    EXPECT_EQ(h.bucketIndex(49.999), 0u);
    EXPECT_EQ(h.bucketIndex(50.0), 1u);
    EXPECT_EQ(h.bucketIndex(9999.0), 199u);

    // Overflow region and junk input map to numBuckets().
    EXPECT_EQ(h.bucketIndex(10000.0), 200u);
    EXPECT_EQ(h.bucketIndex(1e12), 200u);
    EXPECT_EQ(h.bucketIndex(-1.0), 200u);
    EXPECT_EQ(h.bucketIndex(std::nan("")), 200u);
    EXPECT_EQ(h.bucketIndex(
                  std::numeric_limits<double>::infinity()),
              200u);

    // bucketIndex agrees with where add() puts the sample.
    h.add(125.0);
    EXPECT_DOUBLE_EQ(h.bucketFraction(h.bucketIndex(125.0)), 1.0);
}

} // namespace
