/**
 * @file
 * Tests for the online accuracy auditor (audit/auditor.hh) and its
 * bounded lock-free queue (audit/audit_queue.hh): queue semantics,
 * oracle correctness in both weight domains, shot classification
 * (optimal / suboptimal / observable-mismatch / weight-underrun),
 * give-up oracle coverage, drop accounting,
 * shot-indexed sampling that audits the same shots at any thread count,
 * the trace-store capture on observable mismatch, and the decode
 * service's schema-v2 audit surfaces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "audit/auditor.hh"
#include "common/rng.hh"
#include "common/weight.hh"
#include "matching/dp_matcher.hh"
#include "decoders/registry.hh"
#include "harness/block_engine.hh"
#include "harness/decode_service.hh"
#include "harness/memory_experiment.hh"
#include "harness/replay.hh"
#include "telemetry/decode_trace.hh"
#include "telemetry/json_value.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace_store.hh"

namespace astrea
{
namespace
{

// ---------------------------------------------------------------------------
// AuditQueue

AuditSample
sampleForShot(uint64_t shot)
{
    AuditSample s;
    s.shot = shot;
    s.hw = 1;
    s.defects[0] = 0;
    return s;
}

TEST(AuditQueueTest, PushPopIsFifo)
{
    AuditQueue q(4);
    EXPECT_EQ(q.capacity(), 4u);
    for (uint64_t i = 0; i < 4; i++)
        EXPECT_TRUE(q.tryPush(sampleForShot(i)));
    EXPECT_FALSE(q.tryPush(sampleForShot(99))) << "push on full queue";

    AuditSample out;
    for (uint64_t i = 0; i < 4; i++) {
        ASSERT_TRUE(q.tryPop(out));
        EXPECT_EQ(out.shot, i);
    }
    EXPECT_FALSE(q.tryPop(out)) << "pop on empty queue";

    // Slots recycle after wraparound.
    EXPECT_TRUE(q.tryPush(sampleForShot(7)));
    ASSERT_TRUE(q.tryPop(out));
    EXPECT_EQ(out.shot, 7u);
}

TEST(AuditQueueTest, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(AuditQueue(1).capacity(), 2u);
    EXPECT_EQ(AuditQueue(3).capacity(), 4u);
    EXPECT_EQ(AuditQueue(1000).capacity(), 1024u);
}

// ---------------------------------------------------------------------------
// Auditor with a synthetic weight table

/**
 * Two-detector table. Direct pair: 1 decade (q = 8), obs bit 0 set;
 * each boundary: 2 decades (q = 16), obs 1 and 0 — so the boundary
 * route flips the same observable as the direct route and the oracle
 * optimum is the direct pair at weight 1.0.
 */
GlobalWeightTable
tinyGwt()
{
    return GlobalWeightTable(2, {16, 8, 8, 16}, {2.0, 1.0, 1.0, 2.0},
                             {1, 1, 1, 0});
}

AuditConfig
testAuditConfig()
{
    AuditConfig cfg;
    cfg.sampleRate = 1.0;
    cfg.queueCapacity = 64;
    return cfg;
}

DecodeResult
prodResult(uint64_t obs, double weight, bool gave_up = false)
{
    DecodeResult dr;
    dr.obsMask = obs;
    dr.matchingWeight = weight;
    dr.gaveUp = gave_up;
    return dr;
}

const std::vector<uint32_t> kBothDefects = {0, 1};

/** Sets an environment variable for one scope. */
struct ScopedEnv
{
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

    const char *name_;
};

TEST(AuditorTest, OracleDecodeFindsMinimumInBothBackends)
{
    GlobalWeightTable tiny = tinyGwt();
    AccuracyAuditor auditor(tiny, testAuditConfig());
    auto o = auditor.oracleDecode(kBothDefects);
    EXPECT_TRUE(o.usedDp);
    EXPECT_DOUBLE_EQ(o.weight, 1.0);
    EXPECT_EQ(o.obsMask, 1u);

    // One shot at the crossover HW takes the DP, one just above it
    // blossom; in both weight domains each reaches the DP optimum,
    // and its weight and observable are its own pairs'.
    const uint32_t n = kOracleDpMaxHw + 1;
    std::vector<QWeight> q(size_t{n} * n);
    std::vector<double> exact(q.size());
    std::vector<uint64_t> masks(q.size());
    Rng rng(17);
    for (uint32_t a = 0; a < n; a++) {
        for (uint32_t b = a; b < n; b++) {
            // Cheap boundaries send some defects there.
            const uint64_t hi = a == b ? 24 : 64;
            const QWeight w = static_cast<QWeight>(rng.uniformInt(hi) + 4);
            const double e = w / 8.0 + rng.uniform() / 16.0;
            const uint64_t m = rng.uniformInt(4);
            q[a * n + b] = q[b * n + a] = w;
            exact[a * n + b] = exact[b * n + a] = e;
            masks[a * n + b] = masks[b * n + a] = m;
        }
    }
    GlobalWeightTable gwt(n, q, exact, masks);
    for (bool quantized : {true, false}) {
        for (uint32_t hw : {kOracleDpMaxHw, kOracleDpMaxHw + 1}) {
            SCOPED_TRACE(testing::Message() << "quantized " << quantized
                                            << " hw " << hw);
            std::vector<uint32_t> defects(hw);
            for (uint32_t i = 0; i < hw; i++)
                defects[i] = i;
            auto weight = [&](uint32_t a, uint32_t b) {
                return quantized ? gwt.pairWeight(a, b) / 8.0
                                 : gwt.exactWeight(a, b);
            };
            MatchingSolution dp = dpMatchWithBoundary(
                static_cast<int>(hw),
                [&](int i, int j) { return weight(i, j); },
                [&](int i) { return weight(i, i); });

            auto o = AccuracyAuditor::oracleMatch(gwt, defects, quantized);
            EXPECT_EQ(o.usedDp, hw <= kOracleDpMaxHw);
            EXPECT_NEAR(o.weight, dp.totalWeight, quantized ? 1e-12 : 1e-5);
            double sum = 0.0;
            uint64_t obs = 0;
            for (auto [i, j] : o.pairs) {
                const int b = j < 0 ? i : j;
                sum += weight(i, b);
                obs ^= gwt.pairObs(i, b);
            }
            EXPECT_DOUBLE_EQ(o.weight, sum);
            EXPECT_EQ(o.obsMask, obs);
        }
    }
}

TEST(AuditorTest, ClassifiesOptimalSuboptimalAndMismatch)
{
    GlobalWeightTable gwt = tinyGwt();
    AccuracyAuditor auditor(gwt, testAuditConfig());

    // Optimal: production found the weight-1 direct pair.
    auditor.offer(0, 0, kBothDefects, prodResult(1, 1.0), 1);
    // Suboptimal: both defects sent to the boundary (weight 4, same
    // logical correction).
    auditor.offer(1, 0, kBothDefects, prodResult(1, 4.0), 1);
    // Observable mismatch: production flipped nothing.
    auditor.offer(2, 0, kBothDefects, prodResult(0, 4.0), 1);
    // Weight underrun: production claims weight below the optimum.
    auditor.offer(3, 0, kBothDefects, prodResult(1, 0.25), 1);

    EXPECT_EQ(auditor.drainNow(), 4u);
    auto s = auditor.snapshot();
    EXPECT_EQ(s.offered, 4u);
    EXPECT_EQ(s.sampled, 4u);
    EXPECT_EQ(s.completed, 4u);
    EXPECT_EQ(s.optimal, 2u);  // True optimal + reclassified underrun.
    EXPECT_EQ(s.suboptimal, 1u);
    EXPECT_EQ(s.observableMismatches, 1u);
    EXPECT_EQ(s.weightUnderruns, 1u);
    EXPECT_DOUBLE_EQ(s.optimalityRate(), 0.5);

    // Per-HW: all four decodes had HW 2; the mismatch is audited but
    // not optimal.
    EXPECT_EQ(s.byHw[2].audited, 4u);
    EXPECT_EQ(s.byHw[2].optimal, 2u);

    // Gap histogram: the suboptimal shot's 3-decade gap lands in the
    // 24th 1/8-decade bin; optimal shots land in bin 0.
    EXPECT_EQ(s.gapBuckets[0], 2u);
    EXPECT_EQ(s.gapBuckets[24], 1u);
    EXPECT_DOUBLE_EQ(s.gapSumDecades, 3.0);
    EXPECT_EQ(s.gapCount, 3u);  // Mismatches carry no gap.
}

TEST(AuditorTest, EqualWeightTieOfOtherParityIsOptimal)
{
    // The direct pair (2 decades, obs 1) and both defects to the
    // boundary (1 + 1 decades, obs 0) tie. Production took the direct
    // pair; whichever the oracle took, the decode is optimal, not an
    // observable mismatch, and writes no capture.
    namespace fs = std::filesystem;
    const std::string dir = ::testing::TempDir() + "audit_tie_dir";
    fs::remove_all(dir);
    fs::create_directories(dir);
    auto &store = telemetry::TraceStore::global();
    store.setRunInfo("{\"distance\":3}", "{\"name\":\"Astrea\"}");
    store.setCaptureDir(dir, 8, 0);

    GlobalWeightTable gwt(2, {8, 16, 16, 8}, {1.0, 2.0, 2.0, 1.0},
                          {0, 1, 1, 0});
    for (bool quantized : {true, false}) {
        AuditConfig cfg = testAuditConfig();
        cfg.quantizedWeights = quantized;
        AccuracyAuditor auditor(gwt, cfg);
        auditor.offer(0, 0, kBothDefects, prodResult(1, 2.0), 1);
        auditor.offer(1, 0, kBothDefects, prodResult(0, 2.0), 1);
        EXPECT_EQ(auditor.drainNow(), 2u);
        auto s = auditor.snapshot();
        EXPECT_EQ(s.optimal, 2u) << "quantized " << quantized;
        EXPECT_EQ(s.observableMismatches, 0u);
        EXPECT_EQ(s.captures, 0u);
    }
    store.setCaptureDir("");
    EXPECT_TRUE(fs::is_empty(dir));
}

TEST(AuditorTest, GiveUpsAreAlwaysSampledAndOracleAudited)
{
    GlobalWeightTable gwt = tinyGwt();
    AuditConfig cfg = testAuditConfig();
    cfg.sampleRate = 1e-9;  // Astronomic stride: only give-ups pass.
    AccuracyAuditor auditor(gwt, cfg);

    // Shot 0 is sampled by the stride; burn it on a give-up so the
    // non-give-up shot 1 below genuinely tests stride rejection.
    auditor.offer(0, 0, kBothDefects, prodResult(0, 0.0, true), 1);
    EXPECT_FALSE(
        auditor.offer(1, 0, kBothDefects, prodResult(1, 1.0), 1));
    // The oracle decodes this give-up correctly (obs 1)...
    auditor.offer(2, 0, kBothDefects, prodResult(0, 0.0, true), 1);
    // ...but not this one (actual obs 2 is unreachable).
    auditor.offer(3, 0, kBothDefects, prodResult(0, 0.0, true), 2);

    auditor.drainNow();
    auto s = auditor.snapshot();
    EXPECT_EQ(s.giveUpsOffered, 3u);
    EXPECT_EQ(s.giveUpsAudited, 3u);
    EXPECT_EQ(s.giveUpOracleSuccess, 2u);
    EXPECT_DOUBLE_EQ(s.giveUpCoverage(), 1.0);
    // Give-ups are audited but never classified for optimality.
    EXPECT_EQ(s.optimal + s.suboptimal + s.observableMismatches, 0u);
}

TEST(AuditorTest, FullQueueDropsInsteadOfBlocking)
{
    GlobalWeightTable gwt = tinyGwt();
    AuditConfig cfg = testAuditConfig();
    cfg.queueCapacity = 2;
    AccuracyAuditor auditor(gwt, cfg);

    for (uint64_t i = 0; i < 10; i++)
        auditor.offer(i, 0, kBothDefects, prodResult(1, 1.0), 1);

    auto s = auditor.snapshot();
    EXPECT_EQ(s.sampled, 10u);
    EXPECT_EQ(s.enqueued, 2u);
    EXPECT_EQ(s.queueDrops, 8u);
    EXPECT_EQ(s.queueDepth, 2u);

    EXPECT_EQ(auditor.drainNow(), 2u);
    EXPECT_EQ(auditor.snapshot().completed, 2u);
}

TEST(AuditorTest, OversizeSyndromesAreCountedAndDropped)
{
    const uint32_t n = kAuditMaxDefects + 1;
    GlobalWeightTable gwt(
        n, std::vector<QWeight>(size_t{n} * n, 8),
        std::vector<double>(size_t{n} * n, 1.0),
        std::vector<uint64_t>(size_t{n} * n, 0));
    AccuracyAuditor auditor(gwt, testAuditConfig());

    std::vector<uint32_t> defects(n);
    for (uint32_t i = 0; i < n; i++)
        defects[i] = i;
    EXPECT_FALSE(auditor.offer(0, 0, defects, prodResult(0, 1.0), 0));

    auto s = auditor.snapshot();
    EXPECT_EQ(s.oversizeDrops, 1u);
    EXPECT_EQ(s.enqueued, 0u);
}

TEST(AuditorTest, BackgroundPoolDrainsQueue)
{
    GlobalWeightTable gwt = tinyGwt();
    AuditConfig cfg = testAuditConfig();
    cfg.threads = 2;
    AccuracyAuditor auditor(gwt, cfg);
    auditor.start();
    for (uint64_t i = 0; i < 32; i++)
        auditor.offer(i, 0, kBothDefects, prodResult(1, 1.0), 1);
    auditor.stop();  // Joins the pool and drains the remainder.

    auto s = auditor.snapshot();
    EXPECT_EQ(s.completed, 32u);
    EXPECT_EQ(s.optimal, 32u);
    EXPECT_EQ(s.queueDrops, 0u);
}

TEST(AuditorTest, ObservableMismatchTriggersCaptureDir)
{
    namespace fs = std::filesystem;
    const std::string dir =
        ::testing::TempDir() + "audit_capture_dir";
    fs::remove_all(dir);
    fs::create_directories(dir);

    auto &store = telemetry::TraceStore::global();
    store.setRunInfo("{\"distance\":3}", "{\"name\":\"Astrea\"}");
    store.setCaptureDir(dir, 8, 0);

    GlobalWeightTable gwt = tinyGwt();
    AccuracyAuditor auditor(gwt, testAuditConfig());
    DecodeResult dr = prodResult(0, 4.0);
    dr.latencyNs = 120.0;
    dr.cycles = 30;
    auditor.offer(5, 1, kBothDefects, dr, 1);
    auditor.drainNow();

    // Disarm before any assertion can bail out of the test.
    store.setCaptureDir("");

    EXPECT_EQ(auditor.snapshot().captures, 1u);
    const std::string path = dir + "/capture-000.json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "capture file missing: " << path;
    std::ostringstream ss;
    ss << in.rdbuf();

    telemetry::JsonValue doc;
    ASSERT_TRUE(telemetry::parseJson(ss.str(), doc));
    // The capture is the mismatched shot's trace detail document.
    EXPECT_EQ(doc["trigger"].asString(), "audit_mismatch");
    EXPECT_EQ(doc["shot"].asUint(), 5u);
    EXPECT_EQ(doc["cycles"].asUint(), 30u);
    EXPECT_TRUE(doc["audit"]["mismatch"].asBool(false));
    EXPECT_EQ(doc["audit"]["oracle"].asString(), "dp");
    EXPECT_DOUBLE_EQ(doc["audit"]["oracle_weight"].asNumber(0.0), 1.0);
    EXPECT_EQ(doc["audit"]["oracle_obs"].asUint(0), 1u);
}

// ---------------------------------------------------------------------------
// Oracle vs production decoders on real syndromes

TEST(AuditorTest, AstreaMatchingsAreOptimalOnRealSyndromes)
{
    // Astrea enumerates every perfect matching over quantized
    // effective weights, so for HW <= 10 the auditor must classify
    // every decode as optimal — this is the end-to-end statement the
    // production optimality gauge relies on.
    ExperimentConfig cfg;
    cfg.distance = 5;
    cfg.physicalErrorRate = 2e-3;
    ExperimentContext ctx(cfg);
    auto decoder = makeDecoder("astrea", decoderOptionsFor(ctx));

    AccuracyAuditor auditor(ctx.gwt(), testAuditConfig());

    Rng rng(42);
    BitVec dets(ctx.circuit().numDetectors());
    BitVec obs(ctx.circuit().numObservables());
    DecodeResult dr;
    DecodeScratch scratch;
    size_t audited = 0, guard = 0;
    while (audited < 150 && ++guard < 500000) {
        ctx.sampler().sample(rng, dets, obs);
        auto defects = dets.onesIndices();
        if (defects.empty() || defects.size() > 10)
            continue;
        dr.reset();
        decoder->decodeInto(defects, dr, scratch);
        uint64_t actual = 0;
        for (auto o : obs.onesIndices())
            actual |= (1ull << o);
        if (auditor.offer(guard, 0, defects, dr, actual))
            audited++;
        if (audited % 32 == 0)
            auditor.drainNow();
    }
    ASSERT_GE(audited, 100u);
    auditor.drainNow();

    auto s = auditor.snapshot();
    EXPECT_EQ(s.completed, audited);
    // Any gap would be a real decoder (or oracle) bug. An
    // equal-weight tie of another parity is optimal.
    EXPECT_EQ(s.suboptimal, 0u);
    EXPECT_EQ(s.weightUnderruns, 0u);
    EXPECT_EQ(s.observableMismatches, 0u);
}

TEST(AuditorTest, RunAuditsTheSameShotsAtAnyThreadCount)
{
    // runMemoryExperiment's auditor (ASTREA_AUDIT_RATE) samples every
    // stride-th shot by its global index, so the audited shots and
    // their verdicts do not depend on how many workers decoded them.
    // Tracing keeps every audited decode, naming its shot.
    ScopedEnv rate("ASTREA_AUDIT_RATE", "0.125");
    ScopedEnv queue("ASTREA_AUDIT_QUEUE", "65536");
    ExperimentConfig cfg;
    cfg.distance = 3;
    cfg.physicalErrorRate = 5e-3;
    ExperimentContext ctx(cfg);
    telemetry::setEnabled(true);

    std::vector<uint64_t> reference_shots;
    std::map<std::string, uint64_t> reference_counts;
    for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(threads);
        telemetry::MetricsRegistry::global().reset();
        telemetry::TraceStore::global().configure(16384);
        telemetry::TraceRetentionConfig tc;
        tc.enabled = true;
        tc.tailThresholdNs = 1e12;
        tc.headStride = 0;
        telemetry::setTraceRetention(tc);
        runMemoryExperiment(ctx, astreaFactory(), 4 * kBlockShots, 3,
                            threads);
        telemetry::setTraceRetention(telemetry::TraceRetentionConfig{});

        std::vector<uint64_t> shots;
        for (const telemetry::StoredTrace &t :
             telemetry::TraceStore::global().snapshot())
            if (t.audited)
                shots.push_back(t.shot);
        std::sort(shots.begin(), shots.end());
        std::map<std::string, uint64_t> counts;
        for (const auto &[name, v] :
             telemetry::MetricsRegistry::global().counterValues())
            if (name.rfind("audit.", 0) == 0)
                counts[name] = v;
        EXPECT_EQ(counts["audit.queue_drops"], 0u);
        EXPECT_EQ(counts["audit.sampled"], shots.size());
        EXPECT_GT(shots.size(), 1000u);

        if (threads == 1) {
            reference_shots = shots;
            reference_counts = counts;
        } else {
            EXPECT_EQ(shots, reference_shots);
            EXPECT_EQ(counts, reference_counts);
        }
    }
    telemetry::setEnabled(false);
    telemetry::MetricsRegistry::global().reset();
}

TEST(AuditorTest, MismatchCaptureReplaysAndNarratesDivergence)
{
    // End-to-end forensics loop: audit a genuinely suboptimal
    // production decoder (greedy) against the exact oracle until an
    // observable mismatch fires a capture, then replay the capture and
    // require (a) the production verdicts to reproduce exactly and
    // (b) the narration to include the oracle's side of the story.
    namespace fs = std::filesystem;
    const std::string dir = ::testing::TempDir() + "audit_replay_dir";
    fs::remove_all(dir);
    fs::create_directories(dir);

    ExperimentConfig cfg;
    cfg.distance = 5;
    cfg.physicalErrorRate = 6e-3;
    ExperimentContext ctx(cfg);
    auto decoder = makeDecoder("greedy", decoderOptionsFor(ctx));

    auto &store = telemetry::TraceStore::global();
    store.setRunInfo(experimentConfigJson(cfg),
                     decoderDescriptionJson(*decoder));
    store.setCaptureDir(dir, 4, 0);

    // Greedy reports exact-decade weights, so audit in that domain.
    AuditConfig acfg = testAuditConfig();
    acfg.quantizedWeights = false;
    AccuracyAuditor auditor(ctx.gwt(), acfg);

    Rng rng(11);
    BitVec dets(ctx.circuit().numDetectors());
    BitVec obs(ctx.circuit().numObservables());
    DecodeResult dr;
    DecodeScratch scratch;
    for (uint64_t s = 0;
         s < 40000 && auditor.snapshot().captures == 0; s++) {
        ctx.sampler().sample(rng, dets, obs);
        auto defects = dets.onesIndices();
        if (defects.empty())
            continue;
        dr.reset();
        decoder->decodeInto(defects, dr, scratch);
        uint64_t actual = 0;
        for (auto o : obs.onesIndices())
            actual |= (1ull << o);
        auditor.offer(s, 0, defects, dr, actual);
        auditor.drainNow();
    }
    store.setCaptureDir("");

    ASSERT_GT(auditor.snapshot().captures, 0u)
        << "greedy never diverged from the oracle observable";

    ReplayCapture capture;
    std::string error;
    ASSERT_TRUE(
        loadCapture(dir + "/capture-000.json", capture, &error))
        << error;
    ASSERT_FALSE(capture.records.empty());
    EXPECT_TRUE(capture.records.back().audit.mismatch);
    EXPECT_EQ(capture.triggerReason, "audit_mismatch");

    std::ostringstream narration;
    ReplayOptions opts;
    opts.verbose = true;
    ReplaySummary summary = replayCapture(capture, opts, narration);
    EXPECT_EQ(summary.mismatches, 0u) << narration.str();
    const std::string text = narration.str();
    EXPECT_NE(text.find("[trigger]"), std::string::npos) << text;
    // The oracle engine follows the trigger's HW, as in the auditor.
    const std::string engine =
        capture.records.back().hw <= kOracleDpMaxHw ? "dp" : "mwpm";
    EXPECT_NE(text.find("audit oracle (" + engine + ", exact weights)"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("[observable mismatch]"), std::string::npos);
    EXPECT_NE(text.find("oracle matching (weight"), std::string::npos)
        << text;
}

// ---------------------------------------------------------------------------
// Decode service integration (schema v2 surfaces)

ServeConfig
auditedServeConfig()
{
    ServeConfig cfg;
    cfg.distance = 3;
    cfg.physicalErrorRate = 5e-3;  // HW-rich so audits actually occur.
    cfg.decoder = "astrea";
    cfg.workers = 1;
    cfg.seed = 7;
    cfg.auditRate = 1.0;
    cfg.auditQueue = 4096;
    return cfg;
}

TEST(DecodeServiceAuditTest, MetricsAndStatuszExposeAuditFamilies)
{
    DecodeServiceCore core(auditedServeConfig());
    uint64_t tick = 0;
    core.setTickFunction([&tick] { return tick; });

    auto w = core.makeWorker(0);
    for (int i = 0; i < 2000; i++)
        core.decodeOnce(*w);
    core.audit().drainNow();

    auto s = core.audit().snapshot();
    EXPECT_GT(s.completed, 0u);
    EXPECT_EQ(s.queueDrops, 0u);

    const std::string text = core.metricsText();
    for (const char *family :
         {"# TYPE astrea_audit_enabled gauge",
          "# TYPE astrea_audit_completed_total counter",
          "# TYPE astrea_audit_optimality_rate gauge",
          "# TYPE astrea_audit_weight_gap_decades histogram",
          "# TYPE astrea_audit_queue_drops_total counter",
          "# TYPE astrea_audit_observable_mismatches_total counter"}) {
        EXPECT_NE(text.find(family), std::string::npos) << family;
    }
    EXPECT_NE(text.find("astrea_audit_optimality_rate{hw=\"all\"}"),
              std::string::npos);

    telemetry::JsonValue doc;
    ASSERT_TRUE(telemetry::parseJson(core.statuszJson(), doc));
    EXPECT_EQ(doc["schema_version"].asUint(), 6u);
    ASSERT_TRUE(doc.has("audit"));
    EXPECT_TRUE(doc["audit"]["enabled"].asBool(false));
    EXPECT_GT(doc["audit"]["completed"].asUint(0), 0u);
    EXPECT_EQ(doc["audit"]["queue_drops"].asUint(1), 0u);
    // Astrea within its supported HW is exhaustively weight-optimal,
    // and an equal-weight tie of another parity counts as optimal, so
    // every classified audit is optimal.
    EXPECT_EQ(doc["audit"]["suboptimal"].asUint(1), 0u);
    EXPECT_EQ(doc["audit"]["observable_mismatches"].asUint(1), 0u);
    EXPECT_DOUBLE_EQ(doc["audit"]["optimality_rate"].asNumber(0.0), 1.0);
}

TEST(DecodeServiceAuditTest, SoftwareDecoderAuditsInExactDomain)
{
    ServeConfig cfg = auditedServeConfig();
    cfg.decoder = "mwpm";
    DecodeServiceCore core(cfg);
    EXPECT_FALSE(core.audit().config().quantizedWeights);

    // The hardware decoders audit in the quantized domain.
    DecodeServiceCore hw(auditedServeConfig());
    EXPECT_TRUE(hw.audit().config().quantizedWeights);
}

} // namespace
} // namespace astrea
