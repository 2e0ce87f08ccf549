/**
 * @file
 * Tests for the live decode service (harness/decode_service.hh).
 *
 * DecodeServiceCore is driven synchronously with an injected tick, so
 * the Prometheus exposition, the /statusz JSON schema, rolling-window
 * decay and the syndrome-drift monitor are all checked
 * deterministically, and fleet accounting by flush is held to the
 * per-shot scrapes byte for byte; one test then runs the full
 * DecodeService over a real loopback socket.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/bitvec.hh"
#include "common/rng.hh"
#include "harness/decode_service.hh"
#include "harness/trace_io.hh"
#include "net/http_client.hh"
#include "telemetry/json_value.hh"
#include "telemetry/trace_store.hh"

using namespace astrea;

namespace
{

/** Small, fast configuration for synchronous single-thread tests. */
ServeConfig
testConfig()
{
    ServeConfig cfg;
    cfg.distance = 3;
    cfg.physicalErrorRate = 1e-3;
    cfg.decoder = "astrea";
    cfg.workers = 1;
    cfg.seed = 7;
    cfg.subWindows = 4;
    cfg.fastBurnSubWindows = 2;
    cfg.warmupShots = 400;
    cfg.driftBucketShots = 200;
    cfg.driftRingSlots = 4;
    cfg.driftThreshold = 0.05;
    return cfg;
}

/** Value of the first unlabelled sample of `name`, or -1. */
double
sampleValue(const std::string &text, const std::string &name)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(name + " ", 0) == 0)
            return std::stod(line.substr(name.size() + 1));
    }
    return -1.0;
}

TEST(DecodeServiceCoreTest, PrometheusExposition)
{
    DecodeServiceCore core(testConfig());
    uint64_t tick = 0;
    core.setTickFunction([&tick] { return tick; });

    auto w = core.makeWorker(0);
    for (int i = 0; i < 1000; i++)
        core.decodeOnce(*w);

    std::string text = core.metricsText();

    // TYPE headers for the headline families.
    for (const char *family :
         {"# TYPE astrea_serve_up gauge",
          "# TYPE astrea_serve_decodes_total counter",
          "# TYPE astrea_serve_deadline_misses_total counter",
          "# TYPE astrea_serve_window_latency_ns histogram",
          "# TYPE astrea_serve_slo_fast_burn gauge",
          "# TYPE astrea_serve_slo_slow_burn gauge",
          "# TYPE astrea_serve_drift_chi_square gauge"}) {
        EXPECT_NE(text.find(family), std::string::npos) << family;
    }

    EXPECT_DOUBLE_EQ(sampleValue(text, "astrea_serve_up"), 1.0);
    EXPECT_DOUBLE_EQ(sampleValue(text, "astrea_serve_decodes_total"),
                     1000.0);
    EXPECT_NE(text.find("astrea_serve_info{decoder=\"astrea\""),
              std::string::npos);

    // Latency histogram: cumulative buckets, +Inf equals _count.
    uint64_t prev = 0, inf = 0;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("astrea_serve_window_latency_ns_bucket", 0) !=
            0)
            continue;
        uint64_t v = std::stoull(line.substr(line.rfind(' ') + 1));
        EXPECT_GE(v, prev) << line;
        prev = v;
        if (line.find("le=\"+Inf\"") != std::string::npos)
            inf = v;
    }
    double count =
        sampleValue(text, "astrea_serve_window_latency_ns_count");
    EXPECT_EQ(inf, static_cast<uint64_t>(count));
    EXPECT_EQ(inf, 1000u);

    // Percentile gauges exist with sanitized names.
    EXPECT_GE(sampleValue(text, "astrea_serve_window_latency_p50_ns"),
              0.0);
    EXPECT_GE(
        sampleValue(text, "astrea_serve_window_latency_p99_9_ns"),
        0.0);
}

TEST(DecodeServiceCoreTest, StatuszSchemaParses)
{
    DecodeServiceCore core(testConfig());
    uint64_t tick = 0;
    core.setTickFunction([&tick] { return tick; });

    auto w = core.makeWorker(0);
    for (int i = 0; i < 500; i++)
        core.decodeOnce(*w);

    telemetry::JsonValue doc;
    ASSERT_TRUE(telemetry::parseJson(core.statuszJson(), doc));
    EXPECT_EQ(doc["service"].asString(), "astrea_serve");
    EXPECT_EQ(doc["schema_version"].asUint(), 6u);
    EXPECT_TRUE(doc["healthy"].asBool());
    EXPECT_EQ(doc["config"]["d"].asUint(), 3u);
    EXPECT_EQ(doc["config"]["decoder"].asString(), "astrea");
    EXPECT_EQ(doc["totals"]["decodes"].asUint(), 500u);
    EXPECT_EQ(doc["window"]["decodes"].asUint(), 500u);
    EXPECT_EQ(doc["window"]["latency_ns"]["count"].asUint(), 500u);
    EXPECT_GE(doc["slo"]["error_budget"].asNumber(), 0.0);
    ASSERT_TRUE(doc.has("drift"));
    EXPECT_GE(doc["drift"]["chi_square"].asNumber(), 0.0);
    // Schema v2: the audit object is always present; the default
    // config has auditing off.
    ASSERT_TRUE(doc.has("audit"));
    EXPECT_FALSE(doc["audit"]["enabled"].asBool(true));
    EXPECT_EQ(doc["audit"]["completed"].asUint(1), 0u);
    // Schema v3: the perf object is always present; whether counters
    // actually opened depends on the host, so only the shape is
    // pinned here (perf_counters_test.cc covers the states).
    ASSERT_TRUE(doc.has("perf"));
    ASSERT_TRUE(doc["perf"].has("available"));
    ASSERT_TRUE(doc["perf"].has("stage_stride"));
    ASSERT_TRUE(doc["perf"].has("stages"));
    // Schema v4: the trace_store object is always present.
    ASSERT_TRUE(doc.has("trace_store"));
    EXPECT_TRUE(doc["trace_store"]["enabled"].asBool(false));
    EXPECT_EQ(doc["trace_store"]["capacity"].asUint(0),
              testConfig().traceRing);
    EXPECT_LE(doc["trace_store"]["occupancy"].asUint(9999),
              doc["trace_store"]["capacity"].asUint(0));
    EXPECT_TRUE(doc["trace_store"].has("considered"));
    EXPECT_TRUE(doc["trace_store"].has("tail_effective_ns"));
    EXPECT_TRUE(doc["trace_store"].has("head_stride"));
}

TEST(DecodeServiceCoreTest, RollingWindowDecaysAfterLoadStops)
{
    DecodeServiceCore core(testConfig());
    uint64_t tick = 0;
    core.setTickFunction([&tick] { return tick; });

    auto w = core.makeWorker(0);
    for (int i = 0; i < 300; i++)
        core.decodeOnce(*w);

    telemetry::JsonValue doc;
    ASSERT_TRUE(telemetry::parseJson(core.statuszJson(), doc));
    EXPECT_EQ(doc["window"]["decodes"].asUint(), 300u);
    EXPECT_EQ(doc["totals"]["decodes"].asUint(), 300u);

    // Advance past the whole ring without decoding: the window
    // empties, the since-start totals do not.
    tick += testConfig().subWindows + 1;
    ASSERT_TRUE(telemetry::parseJson(core.statuszJson(), doc));
    EXPECT_EQ(doc["window"]["decodes"].asUint(), 0u);
    EXPECT_EQ(doc["window"]["latency_ns"]["count"].asUint(), 0u);
    EXPECT_EQ(doc["totals"]["decodes"].asUint(), 300u);
    EXPECT_DOUBLE_EQ(
        sampleValue(core.metricsText(), "astrea_serve_window_decodes"),
        0.0);
}

TEST(DecodeServiceCoreTest, DriftMonitorReactsToErrorRateChange)
{
    DecodeServiceCore core(testConfig());
    uint64_t tick = 0;
    core.setTickFunction([&tick] { return tick; });

    auto w = core.makeWorker(0);
    // Warm-up plus a few clean ring buckets at the baseline p.
    for (int i = 0; i < 1200; i++)
        core.decodeOnce(*w);
    EXPECT_TRUE(core.drift().baselineReady());
    EXPECT_LT(core.drift().chiSquare(), core.drift().threshold());
    EXPECT_FALSE(core.drift().alarmed());

    // A device drifted to 20x the physical error rate: its Hamming
    // weights, fed through fleet accounting into the same monitor,
    // shift the distribution, and the chi-square distance must follow.
    ExperimentConfig drifted;
    drifted.distance = testConfig().distance;
    drifted.physicalErrorRate = 2e-2;
    ExperimentContext ctx(drifted);
    Rng rng(3);
    BitVec dets(ctx.circuit().numDetectors());
    BitVec obs(ctx.circuit().numObservables());
    std::vector<FleetJob> jobs(2000);
    for (FleetJob &job : jobs) {
        ctx.sampler().sample(rng, dets, obs);
        job.hw = static_cast<uint16_t>(dets.popcount());
    }
    const std::vector<DecodeResult> results(jobs.size());
    core.accountFleetFlush(jobs, results);
    EXPECT_GT(core.drift().chiSquare(), core.drift().threshold());
    EXPECT_TRUE(core.drift().alarmed());

    std::string text = core.metricsText();
    EXPECT_DOUBLE_EQ(sampleValue(text, "astrea_serve_drift_alarm"),
                     1.0);
    EXPECT_GT(sampleValue(text, "astrea_serve_drift_chi_square"),
              0.05);
}

TEST(DecodeServiceCoreTest, TraceEndToEndExemplarResolvesToSpans)
{
    // Force every nontrivial decode into the tail (threshold 1 ns)
    // and audit all of them, so the OpenMetrics exemplar chain is
    // deterministic: scrape -> trace_id -> /traces/<id> detail.
    ServeConfig cfg = testConfig();
    cfg.physicalErrorRate = 1e-2;
    cfg.traceTailNs = 1.0;
    cfg.traceStride = 0;
    cfg.auditRate = 1.0;
    DecodeServiceCore core(cfg);
    uint64_t tick = 0;
    core.setTickFunction([&tick] { return tick; });

    // Decode until a trace above the hw<=2 fast path was kept: those
    // bypass the modeled engine (latency 0), so only hw>=3 decodes
    // can trip the 1 ns tail threshold.
    auto &store = telemetry::TraceStore::global();
    auto w = core.makeWorker(0);
    for (int i = 0;
         i < 50000 && !(store.exemplarAbove(0).latencyNs > 0.0); i++)
        core.decodeOnce(*w);
    ASSERT_GT(store.exemplarAbove(0).latencyNs, 0.0);
    ASSERT_GE(store.counters().kept, 1u);
    EXPECT_GT(core.audit().drainNow(), 0u);

    // The OpenMetrics exposition ends with "# EOF" and attaches a
    // trace-id exemplar to the latency histogram; the 0.0.4 text
    // stays byte-compatible (no exemplars, no terminator).
    const std::string om = core.metricsText(true);
    EXPECT_NE(om.find("# EOF\n"), std::string::npos);
    ASSERT_NE(om.find("astrea_serve_window_latency_ns_bucket"),
              std::string::npos);
    // The last exemplar in the exposition sits on the highest
    // populated bucket (or +Inf): the forced-slow decode.
    const std::string marker = " # {trace_id=\"";
    const size_t pos = om.rfind(marker);
    ASSERT_NE(pos, std::string::npos);
    const std::string plain = core.metricsText(false);
    EXPECT_EQ(plain.find("trace_id=\""), std::string::npos);
    EXPECT_EQ(plain.find("# EOF"), std::string::npos);

    // The exemplar's id must resolve to a full stored trace.
    const uint64_t id = telemetry::parseTraceIdHex(
        om.substr(pos + marker.size(), 16));
    ASSERT_NE(id, 0u);
    const std::string detail = store.detailJson(id);
    ASSERT_FALSE(detail.empty());
    telemetry::JsonValue doc;
    ASSERT_TRUE(telemetry::parseJson(detail, doc));
    EXPECT_EQ(doc["trace_id"].asString(""), telemetry::traceIdHex(id));
    EXPECT_GT(doc["hw"].asUint(0), 0u);
    EXPECT_GT(doc["latency_ns"].asNumber(0.0), 0.0) << detail;
    bool slow = false;
    for (const auto &r : doc["reasons"].arr)
        slow |= r.asString("") == "slow";
    EXPECT_TRUE(slow) << detail;

    // Stage spans from the real decode path: the batch envelope plus
    // the astrea decoder's gather/matching/verdict cut points.
    ASSERT_GT(doc["spans"].arr.size(), 0u);
    std::string stages;
    for (const auto &sp : doc["spans"].arr)
        stages += sp["stage"].asString("") + ",";
    for (const char *stage : {"batch", "gather", "matching", "verdict"})
        EXPECT_NE(stages.find(stage), std::string::npos) << stages;

    // The audit verdict arrived through annotateAudit: the weight gap
    // is attached to the kept trace.
    EXPECT_TRUE(doc["audit"]["sampled"].asBool(false));
    EXPECT_TRUE(doc["audit"]["done"].asBool(false));
    EXPECT_TRUE(doc["audit"].has("weight_gap_decades"));
    EXPECT_GE(doc["audit"]["oracle_weight"].asNumber(-1.0), 0.0);

    // Embedded run info is what `astrea_cli replay --trace-id` uses.
    EXPECT_EQ(doc["context"]["distance"].asUint(0), cfg.distance);
    EXPECT_FALSE(doc["decoder_config"]["name"].asString("").empty());

    // The /traces index surfaces the same trace with its reasons.
    telemetry::TraceQuery q;
    telemetry::JsonValue idx;
    ASSERT_TRUE(telemetry::parseJson(store.indexJson(q), idx));
    EXPECT_GT(idx["traces"].arr.size(), 0u);
    bool found = false;
    for (const auto &t : idx["traces"].arr)
        found |= t["trace_id"].asString("") == telemetry::traceIdHex(id);
    EXPECT_TRUE(found);
}

TEST(DecodeServiceCoreTest, WorkerDecodesTheSeedsShotStream)
{
    // A lone worker claims blocks 0, 1, ... of the seed's shot stream,
    // so its decodes are recordTrace()'s shots of the same seed, shot
    // for shot, across the boundary between blocks 0 and 1. Stride 1
    // keeps every decode's trace; the ring holds the last 128.
    ServeConfig cfg = testConfig();
    cfg.traceStride = 1;
    cfg.traceRing = 128;
    DecodeServiceCore core(cfg);
    uint64_t tick = 0;
    core.setTickFunction([&tick] { return tick; });

    const uint64_t shots = kBlockShots + 64;
    auto w = core.makeWorker(0);
    for (uint64_t i = 0; i < shots; i++)
        core.decodeOnce(*w);

    ExperimentConfig ec;
    ec.distance = cfg.distance;
    ec.physicalErrorRate = cfg.physicalErrorRate;
    const SyndromeTrace trace =
        recordTrace(ExperimentContext(ec), shots, cfg.seed);
    const std::vector<telemetry::StoredTrace> kept =
        telemetry::TraceStore::global().snapshot();
    ASSERT_EQ(kept.size(), cfg.traceRing);
    std::vector<uint64_t> seen;
    for (const telemetry::StoredTrace &t : kept) {
        ASSERT_LT(t.shot, shots);
        SCOPED_TRACE(::testing::Message() << "shot " << t.shot);
        const TraceShot &want = trace.shots[t.shot];
        ASSERT_EQ(t.hw, want.defects.size());
        EXPECT_EQ(std::vector<uint32_t>(t.defects, t.defects + t.hw),
                  want.defects);
        EXPECT_EQ(t.actualObs, want.observables);
        EXPECT_EQ(t.stream, 0u);
        seen.push_back(t.shot);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen.front(), shots - cfg.traceRing);
    EXPECT_EQ(seen.back(), shots - 1);
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(DecodeServiceCoreTest, FlushAccountingMatchesPerShotAccounting)
{
    // The same 1000 fleet shots accounted one accountFleetShot() call
    // at a time and as flushes of 1, 7 and 64 through
    // accountFleetFlush() must scrape byte-identically. The shots cross
    // the drift warm-up (400) and four bucket rotations (every 200),
    // shift their weights enough to raise the drift alarm, and include
    // give-ups and latencies over the 1000 ns budget; the tick moves
    // once, at a shot every flush size divides.
    ServeConfig cfg = testConfig();
    cfg.workers = 0;
    constexpr size_t kShots = 1000;
    constexpr size_t kTickMove = 448;  // 7 * 64.
    std::vector<FleetJob> jobs(kShots);
    std::vector<DecodeResult> results(kShots);
    Rng rng(5);
    for (size_t i = 0; i < kShots; i++) {
        const uint64_t spread = i < 500 ? 4 : 13;
        jobs[i].hw = static_cast<uint16_t>(rng.uniformInt(spread));
        results[i].gaveUp = jobs[i].hw > 10;
        const double latencies[] = {0.0, 37.4, 612.5, 999.5, 1000.0,
                                    1000.6, 2500.2, 1e6};
        results[i].latencyNs = latencies[rng.uniformInt(8)];
    }

    auto run = [&](size_t flush) {
        auto core = std::make_unique<DecodeServiceCore>(cfg);
        uint64_t tick = 3;
        core->setTickFunction([&tick] { return tick; });
        for (size_t i = 0; i < kShots;) {
            tick = i < kTickMove ? 3 : 4;
            if (flush == 0) {
                core->accountFleetShot(jobs[i].hw, results[i].latencyNs,
                                       results[i].gaveUp);
                i++;
                continue;
            }
            const size_t n = std::min(flush, kShots - i);
            core->accountFleetFlush({jobs.data() + i, n},
                                    {results.data() + i, n});
            i += n;
        }
        // Scrape at the final tick through a stable clock.
        core->setTickFunction([] { return uint64_t{4}; });
        return core;
    };
    auto per_shot = run(0);
    EXPECT_EQ(per_shot->totalDecodes(), kShots);
    EXPECT_TRUE(per_shot->drift().baselineReady());
    EXPECT_TRUE(per_shot->drift().alarmed());
    telemetry::JsonValue doc;
    ASSERT_TRUE(telemetry::parseJson(per_shot->statuszJson(), doc));
    EXPECT_GT(doc["totals"]["give_ups"].asUint(), 0u);
    EXPECT_GT(doc["totals"]["deadline_misses"].asUint(), 0u);
    EXPECT_EQ(doc["window"]["decodes"].asUint(), kShots);

    for (size_t flush : {1u, 7u, 64u}) {
        auto batched = run(flush);
        EXPECT_EQ(batched->metricsText(), per_shot->metricsText())
            << "flushes of " << flush;
        EXPECT_EQ(batched->statuszJson(), per_shot->statuszJson())
            << "flushes of " << flush;
    }
}

TEST(DecodeServiceTest, ResolveDecoderNames)
{
    ServeConfig cfg = testConfig();
    DecoderFactory f;
    for (const char *name :
         {"astrea", "astrea-g", "mwpm", "blossom", "windowed-astrea"}) {
        cfg.decoder = name;
        EXPECT_EQ(resolveServeDecoder(cfg, &f), "") << name;
    }
    cfg.decoder = "nope";
    EXPECT_NE(resolveServeDecoder(cfg, &f), "");
}

TEST(DecodeServiceTest, HttpEndpointsRoundTrip)
{
    ServeConfig cfg = testConfig();
    cfg.workers = 2;
    DecodeService svc(cfg);

    std::string error;
    ASSERT_TRUE(svc.start("127.0.0.1", 0, &error)) << error;
    ASSERT_NE(svc.port(), 0);

    // Health flips to ok once both workers have started; poll briefly.
    net::HttpResult res;
    for (int attempt = 0; attempt < 100; attempt++) {
        ASSERT_TRUE(httpGet("127.0.0.1", svc.port(), "/healthz", res,
                            &error))
            << error;
        if (res.status == 200)
            break;
    }
    EXPECT_EQ(res.status, 200);
    EXPECT_EQ(res.body, "ok\n");

    ASSERT_TRUE(
        httpGet("127.0.0.1", svc.port(), "/metrics", res, &error))
        << error;
    EXPECT_EQ(res.status, 200);
    EXPECT_EQ(res.contentType,
              "text/plain; version=0.0.4; charset=utf-8");
    EXPECT_NE(res.body.find("astrea_serve_decodes_total"),
              std::string::npos);

    ASSERT_TRUE(
        httpGet("127.0.0.1", svc.port(), "/statusz", res, &error))
        << error;
    EXPECT_EQ(res.status, 200);
    EXPECT_EQ(res.contentType, "application/json");
    telemetry::JsonValue doc;
    ASSERT_TRUE(telemetry::parseJson(res.body, doc));
    EXPECT_EQ(doc["service"].asString(), "astrea_serve");
    EXPECT_EQ(doc["config"]["workers"].asUint(), 2u);

    // Trace endpoints: the index always parses; an unknown id is 404.
    ASSERT_TRUE(
        httpGet("127.0.0.1", svc.port(), "/traces", res, &error))
        << error;
    EXPECT_EQ(res.status, 200);
    EXPECT_EQ(res.contentType, "application/json");
    ASSERT_TRUE(telemetry::parseJson(res.body, doc));
    EXPECT_EQ(doc["trace_schema_version"].asUint(0), 1u);
    ASSERT_TRUE(httpGet("127.0.0.1", svc.port(),
                        "/traces/0000000000000000", res, &error))
        << error;
    EXPECT_EQ(res.status, 404);

    svc.stop();
    EXPECT_GT(svc.core().totalDecodes(), 0u);
}

} // namespace
