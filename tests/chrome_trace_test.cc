/**
 * @file
 * Tests for the Perfetto timeline export of the trace store's kept
 * decodes (telemetry/chrome_trace.hh): the exported stage slices of a
 * sampled run do not depend on the thread count, every matched decode
 * shows its gather, matching and verdict stages, a batch shared by
 * several kept traces appears once, an empty store exports a valid
 * empty array, and a replayed capture exports each re-decoded record's
 * stages — plus the JSON document parser the forensics tooling reads
 * these files back with.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "harness/block_engine.hh"
#include "harness/memory_experiment.hh"
#include "harness/replay.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/decode_trace.hh"
#include "telemetry/json_value.hh"
#include "telemetry/trace_store.hh"

using namespace astrea;
using namespace astrea::telemetry;

namespace
{

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

/** Export the store to a file and parse it back into its events. */
std::vector<JsonValue>
exportEvents(const TraceStore &store, const char *name)
{
    const std::string path = tempPath(name);
    std::FILE *f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr)
        return {};
    writeChromeTrace(store, f);
    std::fclose(f);

    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    JsonValue doc;
    EXPECT_TRUE(parseJson(ss.str(), doc)) << path;
    EXPECT_EQ(doc.kind, JsonValue::Array);
    return doc.arr;
}

/** Retention on with the given head stride, nothing kept for being
 *  slow; off again when the test ends. */
struct TracingOn
{
    explicit TracingOn(uint64_t stride, size_t ring)
    {
        TraceStore::global().configure(ring);
        TraceRetentionConfig tc;
        tc.enabled = true;
        tc.tailThresholdNs = 1e12;
        tc.headStride = stride;
        setTraceRetention(tc);
    }
    ~TracingOn() { setTraceRetention(TraceRetentionConfig{}); }
};

/** (trace id, stage, shot) of one exported slice. */
using SliceKey = std::tuple<std::string, std::string, uint64_t>;

bool
isStage(const std::string &name)
{
    return name == "gather" || name == "matching" || name == "verdict";
}

} // namespace

TEST(JsonValueTest, ParsesDocumentsTheWriterEmits)
{
    JsonValue doc;
    ASSERT_TRUE(parseJson(
        R"({"a":[1,2.5,-3e2],"b":{"s":"x\"y\n"},"t":true,"n":null})",
        doc));
    EXPECT_EQ(doc["a"].arr.size(), 3u);
    EXPECT_DOUBLE_EQ(doc["a"].arr[1].asNumber(), 2.5);
    EXPECT_DOUBLE_EQ(doc["a"].arr[2].asNumber(), -300.0);
    EXPECT_EQ(doc["b"]["s"].asString(), "x\"y\n");
    EXPECT_TRUE(doc["t"].asBool());
    EXPECT_EQ(doc["n"].kind, JsonValue::Null);
    EXPECT_EQ(doc["missing"].asUint(7), 7u);

    JsonValue bad;
    EXPECT_FALSE(parseJson("{\"unterminated\":", bad));
    EXPECT_FALSE(parseJson("[1,2] trailing", bad));
    EXPECT_FALSE(parseJson("", bad));
}

TEST(ChromeTraceTest, EmptyStoreExportsAnEmptyArray)
{
    TraceStore store(8);
    EXPECT_TRUE(exportEvents(store, "chrome_empty.json").empty());
}

TEST(ChromeTraceTest, StageSlicesAreTheSameAtAnyThreadCount)
{
    ExperimentConfig cfg;
    cfg.distance = 5;
    cfg.physicalErrorRate = 1e-3;
    ExperimentContext ctx(cfg);

    std::multiset<SliceKey> reference;
    for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(threads);
        TracingOn tracing(29, 4096);
        runMemoryExperiment(ctx, astreaFactory(), 4 * kBlockShots, 5,
                            threads);
        const TraceStore::Counters c = TraceStore::global().counters();
        ASSERT_LT(c.kept, c.capacity) << "the ring must hold every trace";

        std::multiset<SliceKey> slices;
        std::map<std::string, std::set<std::string>> stages;
        std::map<std::string, JsonValue> args;
        std::set<std::pair<uint64_t, double>> batches;
        for (const JsonValue &e :
             exportEvents(TraceStore::global(), "chrome_run.json")) {
            EXPECT_EQ(e["ph"].asString(), "X");
            EXPECT_EQ(e["pid"].asUint(), 1u);
            EXPECT_GE(e["ts"].asNumber(-1.0), 0.0);
            EXPECT_GE(e["dur"].asNumber(-1.0), 0.0);
            EXPECT_EQ(e["args"]["decoder"].asString(), "Astrea");
            const std::string name = e["name"].asString();
            if (name == "batch") {
                // Several kept traces share a batch; it appears once.
                EXPECT_TRUE(batches
                                .emplace(e["tid"].asUint(),
                                         e["ts"].asNumber())
                                .second);
                continue;
            }
            const std::string id = e["args"]["trace_id"].asString();
            ASSERT_FALSE(id.empty()) << name;
            slices.emplace(id, name, e["args"]["shot"].asUint());
            stages[id].insert(name);
            args[id] = e["args"];
        }
        EXPECT_FALSE(batches.empty());

        // Every kept decode the decoder matched shows its three stages.
        size_t matched = 0;
        for (const auto &[id, a] : args) {
            if (a["hw"].asUint() == 0 || a["outcome"].asString() == "give_up")
                continue;
            matched++;
            EXPECT_EQ(stages[id],
                      (std::set<std::string>{"gather", "matching",
                                             "verdict"}))
                << id;
        }
        EXPECT_GT(matched, 100u);

        if (threads == 1)
            reference = slices;
        else
            EXPECT_EQ(slices, reference);
    }
}

TEST(ChromeTraceTest, ReplayedCaptureExportsEachRecordsStages)
{
    // A capture from Astrea-G starved of cycles: give-ups are certain
    // within a few hundred shots.
    const std::string path = tempPath("chrome_capture.json");
    std::filesystem::remove(path);
    ExperimentConfig cfg;
    cfg.distance = 5;
    cfg.physicalErrorRate = 4e-3;
    AstreaGConfig agc;
    agc.cycleBudget = 20;
    {
        ExperimentContext ctx(cfg);
        TraceStore::global().setCapturePath(path);
        runMemoryExperiment(ctx, astreaGFactory(agc), 400, 99, 1);
        TraceStore::global().setCapturePath("");
    }
    ReplayCapture capture;
    std::string error;
    ASSERT_TRUE(loadCapture(path, capture, &error)) << error;

    TracingOn tracing(1, 1024);
    std::ostringstream narration;
    const ReplaySummary summary =
        replayCapture(capture, ReplayOptions{}, narration);
    ASSERT_TRUE(summary.ok()) << narration.str();

    // (stream, shot) -> the stages its exported slices name.
    std::map<std::pair<uint64_t, uint64_t>, std::set<std::string>> seen;
    std::set<std::string> ids;
    for (const JsonValue &e :
         exportEvents(TraceStore::global(), "chrome_replay.json")) {
        const std::string name = e["name"].asString();
        if (!isStage(name))
            continue;
        ids.insert(e["args"]["trace_id"].asString());
        seen[{e["tid"].asUint(), e["args"]["shot"].asUint()}].insert(
            name);
    }

    size_t decoded = 0;
    for (const ReplayRecord &rec : capture.records) {
        if (rec.truncated() || rec.hw == 0)
            continue;
        decoded++;
        const std::pair<uint64_t, uint64_t> key(rec.stream, rec.shot);
        EXPECT_FALSE(seen[key].empty())
            << "no stage slice for record at shot " << rec.shot;
    }
    EXPECT_GT(decoded, 0u);
    EXPECT_EQ(ids.size(), decoded);
}
