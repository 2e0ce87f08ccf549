/**
 * @file
 * Tests for syndrome trace record/replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "decoders/mwpm_decoder.hh"
#include "harness/block_engine.hh"
#include "harness/trace_io.hh"

namespace astrea
{
namespace
{

const ExperimentContext &
traceContext()
{
    static ExperimentContext ctx = [] {
        ExperimentConfig cfg;
        cfg.distance = 3;
        cfg.physicalErrorRate = 3e-3;
        return ExperimentContext(cfg);
    }();
    return ctx;
}

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

TEST(TraceIo, RecordShape)
{
    SyndromeTrace trace = recordTrace(traceContext(), 500, 21);
    EXPECT_EQ(trace.numDetectors, 16u);
    EXPECT_EQ(trace.numObservables, 1u);
    EXPECT_EQ(trace.shots.size(), 500u);
    for (const auto &shot : trace.shots) {
        for (size_t i = 1; i < shot.defects.size(); i++)
            EXPECT_LT(shot.defects[i - 1], shot.defects[i]);
        EXPECT_LE(shot.observables, 1u);
    }
}

TEST(TraceIo, RecordIsDeterministicInSeed)
{
    SyndromeTrace a = recordTrace(traceContext(), 200, 33);
    SyndromeTrace b = recordTrace(traceContext(), 200, 33);
    ASSERT_EQ(a.shots.size(), b.shots.size());
    for (size_t s = 0; s < a.shots.size(); s++) {
        EXPECT_EQ(a.shots[s].defects, b.shots[s].defects);
        EXPECT_EQ(a.shots[s].observables, b.shots[s].observables);
    }
}

TEST(TraceIo, SaveLoadRoundTrip)
{
    SyndromeTrace trace = recordTrace(traceContext(), 300, 44);
    std::string path = tempPath("trace_roundtrip.bin");
    saveTrace(trace, path);
    SyndromeTrace loaded = loadTrace(path);

    EXPECT_EQ(loaded.numDetectors, trace.numDetectors);
    EXPECT_EQ(loaded.numObservables, trace.numObservables);
    ASSERT_EQ(loaded.shots.size(), trace.shots.size());
    for (size_t s = 0; s < trace.shots.size(); s++) {
        EXPECT_EQ(loaded.shots[s].defects, trace.shots[s].defects);
        EXPECT_EQ(loaded.shots[s].observables,
                  trace.shots[s].observables);
    }
    std::remove(path.c_str());
}

TEST(TraceIo, ReplayMatchesLiveDecoding)
{
    // Replaying a recorded trace must give exactly the same error
    // count as the live experiment on the same seed: both draw shot g
    // from the same block stream, whichever of their 4 workers runs
    // its block.
    const auto &ctx = traceContext();
    const uint64_t shots = 2 * kBlockShots + 500;
    const char *env = std::getenv("ASTREA_THREADS");
    const std::string saved = env != nullptr ? env : "";
    setenv("ASTREA_THREADS", "4", 1);  // recordTrace's worker count.
    SyndromeTrace trace = recordTrace(ctx, shots, 55);
    if (env != nullptr)
        setenv("ASTREA_THREADS", saved.c_str(), 1);
    else
        unsetenv("ASTREA_THREADS");
    MwpmDecoder dec(ctx.gwt());
    ReplayResult replay = replayTrace(trace, dec);

    auto live = runMemoryExperiment(ctx, mwpmFactory(), shots, 55, 4);
    EXPECT_EQ(replay.shots, shots);
    EXPECT_GT(replay.logicalErrors, 0u);
    EXPECT_EQ(replay.logicalErrors, live.logicalErrors.successes);
}

TEST(TraceIo, ReplayCountsGaveUps)
{
    const auto &ctx = traceContext();
    SyndromeTrace trace;
    trace.numDetectors = 16;
    trace.numObservables = 1;
    // Synthetic dense shot that Astrea must refuse (HW > 10).
    TraceShot dense;
    for (uint32_t i = 0; i < 12; i++)
        dense.defects.push_back(i);
    trace.shots.push_back(dense);

    AstreaDecoder astrea(ctx.gwt());
    ReplayResult r = replayTrace(trace, astrea);
    EXPECT_EQ(r.gaveUps, 1u);
}

TEST(TraceIo, RejectsGarbage)
{
    std::string path = tempPath("trace_garbage.bin");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("definitely not a trace", 1, 22, f);
    std::fclose(f);
    EXPECT_EXIT(loadTrace(path), ::testing::ExitedWithCode(1),
                "not a syndrome trace");
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsOutOfRangeDefects)
{
    SyndromeTrace trace;
    trace.numDetectors = 4;
    trace.numObservables = 1;
    TraceShot bad;
    bad.defects = {99};
    trace.shots.push_back(bad);
    std::string path = tempPath("trace_bad_defect.bin");
    saveTrace(trace, path);
    EXPECT_EXIT(loadTrace(path), ::testing::ExitedWithCode(1),
                "out of range");
    std::remove(path.c_str());
}

} // namespace
} // namespace astrea
