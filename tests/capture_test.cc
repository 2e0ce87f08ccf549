/**
 * @file
 * Tests for forensic captures and their deterministic replay: the
 * tracer's per-stream ring of recent decodes, run isolation, the
 * one-shot and numbered-directory capture modes under concurrent
 * triggers, the directory rate limit, the audit-mismatch capture, and
 * the end-to-end guarantee that a capture re-decodes to the recorded
 * verdicts (the decoders are pure functions of the weight table and
 * the defect list) — including a trigger wider than a trace's inline
 * defect copy, and a truncated record that replay lists unverified.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/auditor.hh"
#include "common/rng.hh"
#include "decoders/registry.hh"
#include "harness/memory_experiment.hh"
#include "harness/replay.hh"
#include "telemetry/decode_trace.hh"
#include "telemetry/json_value.hh"
#include "telemetry/trace_store.hh"

using namespace astrea;
using namespace astrea::telemetry;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::string
freshDir(const std::string &name)
{
    namespace fs = std::filesystem;
    const std::string dir = tempPath(name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

JsonValue
readJson(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    JsonValue doc;
    EXPECT_TRUE(parseJson(ss.str(), doc)) << path;
    return doc;
}

/** Disarms the global store's capture when the test ends, even when an
 *  assertion bails out early, so no later test inherits it. */
struct CaptureGuard
{
    ~CaptureGuard()
    {
        TraceStore &store = TraceStore::global();
        store.setCapturePath("");
        store.setCaptureDir("");
    }
};

/** Finish in-batch shot idx of this thread's open batch with two
 *  defects derived from its shot number; trigger = give-up. */
void
finishShot(DecodeTracer &tracer, uint64_t base, uint32_t idx,
           bool trigger)
{
    const uint32_t defects[2] = {static_cast<uint32_t>(base + idx),
                                 static_cast<uint32_t>(base + idx + 1)};
    traceShotBegin(idx);
    TraceShotOutcome o;
    o.gaveUp = trigger;
    o.cycles = 7;
    o.defects = defects;
    o.hw = 2;
    tracer.finishShot(idx, o);
}

/** Run shots [base, base + n) of stream through this thread's tracer;
 *  the last one is a give-up when trigger_last. */
void
runShots(uint32_t stream, uint64_t base, uint32_t n, bool trigger_last)
{
    DecodeTracer &tracer = decodeTracer();
    tracer.beginBatch(stream, base, "astrea", 1);
    for (uint32_t i = 0; i < n; i++)
        finishShot(tracer, base, i, trigger_last && i + 1 == n);
    tracer.endBatch();
}

/** Spin until every one of n threads has arrived. */
void
arriveAndWait(std::atomic<int> &arrived, int n)
{
    arrived.fetch_add(1);
    while (arrived.load() < n)
        std::this_thread::yield();
}

/** Astrea-G starved of cycles at an HW-rich point: give-ups are
 *  certain within a few hundred shots. */
struct StarvedRun
{
    ExperimentContext ctx;
    DecoderFactory factory;

    StarvedRun() : ctx(config()), factory(starvedFactory()) {}

    static ExperimentConfig config()
    {
        ExperimentConfig cfg;
        cfg.distance = 5;
        cfg.physicalErrorRate = 4e-3;
        return cfg;
    }
    static DecoderFactory starvedFactory()
    {
        AstreaGConfig agc;
        agc.cycleBudget = 20;
        return astreaGFactory(agc);
    }
};

/** Write a capture from a one-worker starved run. */
std::string
writeRunCapture(const std::string &name)
{
    const std::string path = tempPath(name);
    std::filesystem::remove(path);
    CaptureGuard guard;
    TraceStore::global().setCapturePath(path);
    StarvedRun run;
    runMemoryExperiment(run.ctx, run.factory, 400, 99, 1);
    EXPECT_TRUE(std::filesystem::exists(path))
        << "operating point produced no trigger";
    return path;
}

} // namespace

TEST(CaptureTest, RingKeepsTheStreamsLast256)
{
    const std::string dir = freshDir("cap_ring");
    CaptureGuard guard;
    TraceStore &store = TraceStore::global();
    store.setCaptureDir(dir, 8, 0);
    store.setRunInfo("{\"distance\":3}", "{\"name\":\"Astrea\"}");

    for (uint64_t base = 0; base < 300; base += 60)
        runShots(4, base, 60, false);
    runShots(4, 300, 1, true);

    JsonValue doc = readJson(dir + "/capture-000.json");
    EXPECT_EQ(doc["trigger"].asString(), "give_up");
    EXPECT_EQ(doc["shot"].asUint(), 300u);
    EXPECT_EQ(doc["stream"].asUint(), 4u);
    EXPECT_EQ(doc["context"]["distance"].asUint(), 3u);
    const auto &recent = doc["recent"].arr;
    ASSERT_EQ(recent.size(), DecodeTracer::kRecentShots);
    for (size_t k = 0; k < recent.size(); k++) {
        // Oldest first, ending with the trigger itself.
        EXPECT_EQ(recent[k]["shot"].asUint(), 45 + k);
        EXPECT_EQ(recent[k]["stream"].asUint(), 4u);
    }
    EXPECT_TRUE(recent.back()["gave_up"].asBool(false));
    EXPECT_EQ(recent[10]["defects"].arr[1].asUint(), 56u);

    // Another stream's shots on this thread stay out of stream 4's
    // capture.
    runShots(9, 0, 20, false);
    runShots(4, 301, 1, true);
    doc = readJson(dir + "/capture-001.json");
    ASSERT_FALSE(doc["recent"].arr.empty());
    for (const JsonValue &r : doc["recent"].arr)
        EXPECT_EQ(r["stream"].asUint(), 4u);
    EXPECT_EQ(doc["recent"].arr.back()["shot"].asUint(), 301u);
}

TEST(CaptureTest, NewRunForgetsEarlierDecodes)
{
    const std::string dir = freshDir("cap_run_reset");
    CaptureGuard guard;
    TraceStore &store = TraceStore::global();
    store.setCaptureDir(dir, 8, 0);

    store.setRunInfo("{\"distance\":3}", "{\"name\":\"Astrea\"}");
    runShots(0, 0, 40, false);
    store.setRunInfo("{\"distance\":5}", "{\"name\":\"Astrea\"}");
    runShots(0, 100, 1, true);

    JsonValue doc = readJson(dir + "/capture-000.json");
    EXPECT_EQ(doc["context"]["distance"].asUint(), 5u);
    ASSERT_EQ(doc["recent"].arr.size(), 1u);
    EXPECT_EQ(doc["recent"].arr[0]["shot"].asUint(), 100u);
}

TEST(CaptureTest, OneWorkerRunsOnTheCallersThreadStartFresh)
{
    // parallelFor runs a one-worker run on the caller's own thread, so
    // its thread-local ring survives from one run to the next; the
    // second run's first capture must still hold only its own shots.
    CaptureGuard guard;
    TraceStore &store = TraceStore::global();
    StarvedRun run;

    const std::string first = freshDir("cap_one_worker_a");
    store.setCaptureDir(first, 1, 0);
    runMemoryExperiment(run.ctx, run.factory, 300, 5, 1);

    const std::string second = freshDir("cap_one_worker_b");
    store.setCaptureDir(second, 1, 0);
    runMemoryExperiment(run.ctx, run.factory, 300, 6, 1);

    JsonValue doc = readJson(second + "/capture-000.json");
    const uint64_t trigger = doc["shot"].asUint();
    const auto &recent = doc["recent"].arr;
    ASSERT_EQ(recent.size(), trigger + 1);
    for (size_t k = 0; k < recent.size(); k++)
        EXPECT_EQ(recent[k]["shot"].asUint(), k);
}

TEST(CaptureTest, OneShotPathIsWrittenOnceUnderConcurrentTriggers)
{
    const std::string path = tempPath("cap_oneshot.json");
    std::filesystem::remove(path);
    CaptureGuard guard;
    TraceStore &store = TraceStore::global();
    store.setCapturePath(path);
    store.setRunInfo("{\"distance\":3}", "{\"name\":\"Astrea\"}");
    const uint64_t before = store.capturesWritten();

    // Every thread arms its batch, then all trigger at once.
    constexpr int kThreads = 6;
    std::atomic<int> arrived{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&arrived, t] {
            DecodeTracer &tracer = decodeTracer();
            tracer.beginBatch(static_cast<uint32_t>(t), 0, "astrea", 1);
            arriveAndWait(arrived, kThreads);
            finishShot(tracer, 0, 0, true);
            tracer.endBatch();
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(store.capturesWritten() - before, 1u);
    EXPECT_FALSE(store.captureArmed());
    JsonValue doc = readJson(path);
    EXPECT_EQ(doc["trigger"].asString(), "give_up");
    const uint64_t first_stream = doc["stream"].asUint();
    EXPECT_LT(first_stream, static_cast<uint64_t>(kThreads));

    // Later triggers never overwrite the first piece of evidence.
    runShots(77, 0, 1, true);
    EXPECT_EQ(store.capturesWritten() - before, 1u);
    EXPECT_EQ(readJson(path)["stream"].asUint(), first_stream);
}

TEST(CaptureTest, DirModeNumbersEveryConcurrentCapture)
{
    const std::string dir = freshDir("cap_dir_numbers");
    CaptureGuard guard;
    TraceStore &store = TraceStore::global();
    store.setCaptureDir(dir, 100, 0);
    store.setRunInfo("{\"distance\":3}", "{\"name\":\"Astrea\"}");
    const uint64_t before = store.capturesWritten();

    constexpr int kThreads = 6;
    constexpr uint32_t kPerThread = 4;
    std::atomic<int> arrived{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&arrived, t] {
            DecodeTracer &tracer = decodeTracer();
            tracer.beginBatch(static_cast<uint32_t>(t), 0, "astrea", 1);
            arriveAndWait(arrived, kThreads);
            for (uint32_t i = 0; i < kPerThread; i++)
                finishShot(tracer, 0, i, true);
            tracer.endBatch();
        });
    }
    for (auto &th : threads)
        th.join();

    constexpr uint64_t kTotal = kThreads * kPerThread;
    EXPECT_EQ(store.capturesWritten() - before, kTotal);
    std::set<std::pair<uint64_t, uint64_t>> triggers;
    for (uint64_t k = 0; k < kTotal; k++) {
        char name[32];
        std::snprintf(name, sizeof(name), "/capture-%03llu.json",
                      static_cast<unsigned long long>(k));
        JsonValue doc = readJson(dir + name);
        triggers.insert({doc["stream"].asUint(), doc["shot"].asUint()});
    }
    // One file per trigger: none was written twice or rewritten.
    EXPECT_EQ(triggers.size(), kTotal);
    EXPECT_FALSE(std::filesystem::exists(dir + "/capture-024.json"));
}

TEST(CaptureTest, DirModeRateLimitsByCountAndInterval)
{
    namespace fs = std::filesystem;
    CaptureGuard guard;
    TraceStore &store = TraceStore::global();
    store.setRunInfo("{\"distance\":3}", "{\"name\":\"Astrea\"}");

    const std::string by_count = freshDir("cap_limit_count");
    store.setCaptureDir(by_count, /*max_files=*/2, /*min_interval_ms=*/0);
    uint64_t written = store.capturesWritten();
    uint64_t limited = store.capturesRateLimited();
    runShots(0, 0, 1, true);
    runShots(0, 1, 1, true);
    runShots(0, 2, 1, true);  // Past max_files: counted, not written.
    EXPECT_EQ(store.capturesWritten() - written, 2u);
    EXPECT_EQ(store.capturesRateLimited() - limited, 1u);
    EXPECT_TRUE(fs::exists(by_count + "/capture-001.json"));
    EXPECT_FALSE(fs::exists(by_count + "/capture-002.json"));

    // A day between captures: the second trigger is suppressed.
    const std::string by_interval = freshDir("cap_limit_interval");
    store.setCaptureDir(by_interval, /*max_files=*/10,
                              /*min_interval_ms=*/86400000);
    written = store.capturesWritten();
    limited = store.capturesRateLimited();
    runShots(0, 0, 1, true);
    runShots(0, 1, 1, true);
    EXPECT_EQ(store.capturesWritten() - written, 1u);
    EXPECT_EQ(store.capturesRateLimited() - limited, 1u);
    EXPECT_TRUE(fs::exists(by_interval + "/capture-000.json"));
    EXPECT_FALSE(fs::exists(by_interval + "/capture-001.json"));
}

TEST(CaptureTest, AuditMismatchCaptureHoldsTheShotAlone)
{
    const std::string dir = freshDir("cap_audit");
    CaptureGuard guard;
    TraceStore &store = TraceStore::global();
    store.setCaptureDir(dir, 8, 0);
    store.setRunInfo("{\"distance\":3}", "{\"name\":\"Greedy\"}");

    // This thread's ring holds decodes, but the auditor runs after the
    // stream has moved on: its capture must not borrow them.
    runShots(2, 0, 30, false);

    // Two detectors: the direct pair weighs 1 decade and flips
    // observable 0; production claims no flip at weight 4.
    GlobalWeightTable gwt(2, {16, 8, 8, 16}, {2.0, 1.0, 1.0, 2.0},
                          {1, 1, 1, 0});
    AuditConfig acfg;
    acfg.sampleRate = 1.0;
    acfg.queueCapacity = 64;
    acfg.quantizedWeights = false;
    AccuracyAuditor auditor(gwt, acfg);
    DecodeResult dr;
    dr.matchingWeight = 4.0;
    const std::vector<uint32_t> defects = {0, 1};
    ASSERT_TRUE(auditor.offer(12, 2, defects, dr, 1, /*trace_id=*/0xabc));
    auditor.drainNow();
    EXPECT_EQ(auditor.snapshot().captures, 1u);

    JsonValue doc = readJson(dir + "/capture-000.json");
    EXPECT_EQ(doc["trigger"].asString(), "audit_mismatch");
    EXPECT_FALSE(doc.has("recent"));
    EXPECT_EQ(doc["shot"].asUint(), 12u);
    EXPECT_EQ(doc["trace_id"].asString(), traceIdHex(0xabc));
    EXPECT_EQ(doc["defects"].arr.size(), 2u);
    EXPECT_TRUE(doc["audit"]["mismatch"].asBool(false));
    EXPECT_EQ(doc["audit"]["oracle"].asString(), "dp");
    EXPECT_FALSE(doc["audit"]["quantized"].asBool(true));
    EXPECT_DOUBLE_EQ(doc["audit"]["oracle_weight"].asNumber(0.0), 1.0);
}

TEST(CaptureTest, CaptureReplaysToIdenticalVerdicts)
{
    const std::string path = writeRunCapture("cap_replay.json");

    ReplayCapture capture;
    std::string error;
    ASSERT_TRUE(loadCapture(path, capture, &error)) << error;
    EXPECT_EQ(capture.decoderName, "Astrea-G");
    EXPECT_EQ(capture.config.distance, 5u);
    EXPECT_TRUE(capture.triggerReason == "give_up" ||
                capture.triggerReason == "logical_error")
        << capture.triggerReason;
    ASSERT_FALSE(capture.records.empty());
    EXPECT_LE(capture.records.size(), DecodeTracer::kRecentShots);
    const ReplayRecord &last = capture.records.back();
    EXPECT_TRUE(last.gaveUp || last.logicalError);
    for (size_t k = 0; k < capture.records.size(); k++)
        EXPECT_EQ(capture.records[k].shot, last.shot + 1 + k -
                                               capture.records.size());

    std::ostringstream narration;
    ReplayOptions opts;
    opts.verbose = true;
    ReplaySummary summary = replayCapture(capture, opts, narration);
    EXPECT_EQ(summary.records, capture.records.size());
    EXPECT_EQ(summary.truncated, 0u);
    EXPECT_EQ(summary.mismatches, 0u) << narration.str();
    EXPECT_GT(summary.gaveUps + summary.logicalErrors, 0u);
    EXPECT_NE(narration.str().find("[trigger]"), std::string::npos);
    EXPECT_NE(narration.str().find("verdicts reproduced"),
              std::string::npos);
}

TEST(CaptureTest, TamperedVerdictIsReportedAsMismatch)
{
    const std::string path = writeRunCapture("cap_tamper.json");

    ReplayCapture capture;
    std::string error;
    ASSERT_TRUE(loadCapture(path, capture, &error)) << error;

    // Flip one recorded prediction: the replay must notice that the
    // decoder does not actually produce this verdict.
    capture.records.back().obsMask ^= 1;

    std::ostringstream narration;
    ReplaySummary summary =
        replayCapture(capture, ReplayOptions{}, narration);
    EXPECT_EQ(summary.mismatches, 1u);
    EXPECT_FALSE(summary.ok());
    EXPECT_NE(narration.str().find("MISMATCH"), std::string::npos);
}

TEST(CaptureTest, RejectsMalformedAndSchema1Files)
{
    ReplayCapture capture;
    std::string error;

    EXPECT_FALSE(
        loadCapture(tempPath("cap_missing.json"), capture, &error));
    EXPECT_NE(error.find("cannot read"), std::string::npos);

    auto write = [](const std::string &name, const char *text) {
        const std::string path = tempPath(name);
        std::ofstream(path) << text;
        return path;
    };

    EXPECT_FALSE(loadCapture(write("cap_bad.json", "{\"shot\": "),
                             capture, &error));
    EXPECT_NE(error.find("malformed"), std::string::npos);

    // Schema-1 captures, the flight recorder's format, are rejected.
    EXPECT_FALSE(loadCapture(
        write("cap_schema1.json",
              "{\"capture_schema_version\": 1, \"context\": "
              "{\"distance\": 3}, \"decoder\": {\"name\": \"Astrea\"}, "
              "\"records\": []}"),
        capture, &error));
    EXPECT_NE(error.find("schema-1"), std::string::npos) << error;
    EXPECT_NE(error.find("build from before"), std::string::npos)
        << error;

    EXPECT_FALSE(loadCapture(write("cap_other.json", "{\"kept\": 3}"),
                             capture, &error));
    EXPECT_NE(error.find("not a trace"), std::string::npos) << error;

    EXPECT_FALSE(loadCapture(
        write("cap_no_context.json",
              "{\"trace_schema_version\": 1, \"hw\": 0}"),
        capture, &error));
    EXPECT_NE(error.find("context"), std::string::npos) << error;
}

namespace
{

/** MWPM at an HW-rich point, and one sampled syndrome wider than a
 *  trace's inline defect copy. */
struct WideShot
{
    ExperimentContext ctx;
    std::unique_ptr<Decoder> decoder;
    std::vector<uint32_t> defects;

    WideShot() : ctx(config()), decoder(makeDecoder("mwpm",
                                                    decoderOptionsFor(ctx)))
    {
        Rng rng(3);
        BitVec dets(ctx.circuit().numDetectors());
        BitVec obs(ctx.circuit().numObservables());
        for (int guard = 0; guard < 1000 && defects.size() <= 64;
             guard++) {
            ctx.sampler().sample(rng, dets, obs);
            defects = dets.onesIndices();
        }
    }

    static ExperimentConfig config()
    {
        ExperimentConfig cfg;
        cfg.distance = 7;
        cfg.physicalErrorRate = 4e-2;
        return cfg;
    }
};

} // namespace

TEST(CaptureTest, WideTriggerReplaysFromItsFullDefectList)
{
    WideShot shot;
    ASSERT_GT(shot.defects.size(), kTraceMaxDefects);

    const std::string path = tempPath("cap_wide.json");
    std::filesystem::remove(path);
    CaptureGuard guard;
    TraceStore &store = TraceStore::global();
    store.setCapturePath(path);
    store.setRunInfo(experimentConfigJson(shot.ctx.config()),
                     decoderDescriptionJson(*shot.decoder));

    DecodeTracer &tracer = decodeTracer();
    tracer.beginBatch(0, 0, "MWPM", 1);
    traceShotBegin(0);
    DecodeResult dr;
    DecodeScratch scratch;
    shot.decoder->decodeInto(shot.defects, dr, scratch);
    TraceShotOutcome o;
    o.latencyNs = dr.latencyNs;
    o.cycles = dr.cycles;
    o.matchingWeight = dr.matchingWeight;
    o.obsMask = dr.obsMask;
    o.actualObs = dr.obsMask ^ 1;  // Call it a logical error.
    o.logicalError = true;
    o.defects = shot.defects.data();
    o.hw = static_cast<uint32_t>(shot.defects.size());
    tracer.finishShot(0, o);
    tracer.endBatch();

    ReplayCapture capture;
    std::string error;
    ASSERT_TRUE(loadCapture(path, capture, &error)) << error;
    // The ring's cut copy of the trigger gives way to the whole list.
    ASSERT_EQ(capture.records.size(), 1u);
    EXPECT_EQ(capture.records[0].syndrome, shot.defects);
    EXPECT_FALSE(capture.records[0].truncated());

    std::ostringstream narration;
    ReplaySummary summary =
        replayCapture(capture, ReplayOptions{}, narration);
    EXPECT_EQ(summary.truncated, 0u);
    EXPECT_EQ(summary.mismatches, 0u) << narration.str();
}

TEST(CaptureTest, TruncatedTraceIsListedNotVerified)
{
    // A kept trace holds at most kTraceMaxDefects defects inline while
    // hw keeps the true count; re-decoding the cut list would report a
    // mismatch the decoder never made.
    WideShot shot;
    ASSERT_GT(shot.defects.size(), kTraceMaxDefects);
    TraceStore store(4);
    store.setRunInfo(experimentConfigJson(shot.ctx.config()),
                     decoderDescriptionJson(*shot.decoder));
    StoredTrace t;
    t.traceId = 0x77;
    t.hw = static_cast<uint32_t>(shot.defects.size());
    t.reasons = kTraceKeepSlow;
    std::copy(shot.defects.begin(),
              shot.defects.begin() + kTraceMaxDefects, t.defects);
    store.keep(t);

    const std::string path = tempPath("cap_truncated.json");
    std::ofstream(path) << store.detailJson(0x77);

    ReplayCapture capture;
    std::string error;
    ASSERT_TRUE(loadCapture(path, capture, &error)) << error;
    ASSERT_EQ(capture.records.size(), 1u);
    EXPECT_TRUE(capture.records[0].truncated());

    std::ostringstream narration;
    ReplaySummary summary =
        replayCapture(capture, ReplayOptions{}, narration);
    EXPECT_EQ(summary.records, 1u);
    EXPECT_EQ(summary.truncated, 1u);
    EXPECT_EQ(summary.mismatches, 0u);
    EXPECT_TRUE(summary.ok());
    EXPECT_NE(narration.str().find("[truncated, not verified]"),
              std::string::npos)
        << narration.str();
    EXPECT_EQ(narration.str().find("verdicts reproduced"),
              std::string::npos);
}
