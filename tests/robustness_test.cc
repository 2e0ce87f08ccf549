/**
 * @file
 * Robustness and determinism tests across the stack: thread-count
 * invariance of derived structures, non-default round counts,
 * memory-X decoding through the full decoder set, and behavior at the
 * edges of the supported parameter space.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>

#include "harness/memory_experiment.hh"

namespace astrea
{
namespace
{

TEST(Robustness, GwtConstructionIsThreadCountInvariant)
{
    // Rows are computed independently; the table must not depend on
    // which worker of the parallel loop claims which row.
    ExperimentConfig cfg;
    cfg.distance = 3;
    cfg.physicalErrorRate = 1e-3;

    setenv("ASTREA_THREADS", "1", 1);
    ExperimentContext serial(cfg);
    setenv("ASTREA_THREADS", "4", 1);
    ExperimentContext parallel(cfg);
    unsetenv("ASTREA_THREADS");

    ASSERT_EQ(serial.gwt().size(), parallel.gwt().size());
    for (uint32_t i = 0; i < serial.gwt().size(); i++) {
        for (uint32_t j = 0; j < serial.gwt().size(); j++) {
            EXPECT_EQ(serial.gwt().pairWeight(i, j),
                      parallel.gwt().pairWeight(i, j));
            EXPECT_EQ(serial.gwt().pairObs(i, j),
                      parallel.gwt().pairObs(i, j));
            EXPECT_EQ(std::bit_cast<uint64_t>(serial.gwt().exactWeight(i, j)),
                      std::bit_cast<uint64_t>(
                          parallel.gwt().exactWeight(i, j)));
        }
    }
}

TEST(Robustness, ContextRebuildIsDeterministic)
{
    ExperimentConfig cfg;
    cfg.distance = 3;
    cfg.physicalErrorRate = 2e-3;
    ExperimentContext a(cfg);
    ExperimentContext b(cfg);
    EXPECT_EQ(a.errorModel().mechanisms().size(),
              b.errorModel().mechanisms().size());
    EXPECT_EQ(a.graph().edges().size(), b.graph().edges().size());
    for (size_t e = 0; e < a.graph().edges().size(); e++) {
        EXPECT_EQ(a.graph().edges()[e].u, b.graph().edges()[e].u);
        EXPECT_DOUBLE_EQ(a.graph().edges()[e].probability,
                         b.graph().edges()[e].probability);
    }
}

class RoundsOverrideTest
    : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(RoundsOverrideTest, NonDefaultRoundCountsDecode)
{
    // The paper always uses d rounds, but the machinery supports any
    // round count (windowed decoding relies on this).
    ExperimentConfig cfg;
    cfg.distance = 3;
    cfg.rounds = GetParam();
    cfg.physicalErrorRate = 2e-3;
    ExperimentContext ctx(cfg);
    EXPECT_EQ(ctx.gwt().size(),
              syndromeVectorLength(3, GetParam()));

    auto r = runMemoryExperiment(ctx, mwpmFactory(), 5000, 1);
    EXPECT_EQ(r.logicalErrors.trials, 5000u);
}

INSTANTIATE_TEST_SUITE_P(Rounds, RoundsOverrideTest,
                         ::testing::Values(1u, 2u, 6u, 12u));

TEST(Robustness, MoreRoundsRaisePerCycleErrorExposure)
{
    // Doubling the rounds roughly doubles the error exposure, so the
    // per-shot LER must grow with the round count.
    ExperimentConfig short_cfg;
    short_cfg.distance = 3;
    short_cfg.rounds = 3;
    short_cfg.physicalErrorRate = 3e-3;
    ExperimentConfig long_cfg = short_cfg;
    long_cfg.rounds = 12;

    ExperimentContext short_ctx(short_cfg);
    ExperimentContext long_ctx(long_cfg);
    auto rs = runMemoryExperiment(short_ctx, mwpmFactory(), 60000, 3);
    auto rl = runMemoryExperiment(long_ctx, mwpmFactory(), 60000, 3);
    ASSERT_GT(rs.logicalErrors.successes, 20u);
    EXPECT_GT(rl.ler(), 1.5 * rs.ler());
}

TEST(Robustness, MemoryXFullDecoderSet)
{
    // Every decoder handles the X-basis experiment (symmetry check).
    ExperimentConfig cfg;
    cfg.distance = 3;
    cfg.basis = Basis::X;
    cfg.physicalErrorRate = 2e-3;
    ExperimentContext ctx(cfg);

    for (const auto &factory :
         {mwpmFactory(), astreaFactory(), astreaGFactory(),
          unionFindFactory(), cliqueFactory(), greedyFactory()}) {
        auto r = runMemoryExperiment(ctx, factory, 10000, 5);
        EXPECT_EQ(r.logicalErrors.trials, 10000u);
        // At d=3 and this p, every decoder should be far better than
        // the ~50% of random guessing.
        EXPECT_LT(r.ler(), 0.1);
    }
}

TEST(Robustness, VeryLowPhysicalErrorRate)
{
    // p = 1e-6: almost every shot is trivial; nothing should crash and
    // the LER should be ~0 at this shot budget.
    ExperimentConfig cfg;
    cfg.distance = 3;
    cfg.physicalErrorRate = 1e-6;
    ExperimentContext ctx(cfg);
    auto r = runMemoryExperiment(ctx, astreaFactory(), 50000, 7);
    EXPECT_EQ(r.logicalErrors.successes, 0u);
    EXPECT_GT(r.hammingWeights.frequency(0), 0.99);
}

TEST(Robustness, HighPhysicalErrorRateStaysFunctional)
{
    // p = 2e-2 is far above threshold: decoding barely helps, but the
    // full stack must stay well-defined (HW can exceed 60 here, so
    // Astrea-G may give up; MWPM must not).
    ExperimentConfig cfg;
    cfg.distance = 3;
    cfg.physicalErrorRate = 2e-2;
    ExperimentContext ctx(cfg);
    auto r = runMemoryExperiment(ctx, mwpmFactory(), 3000, 9);
    EXPECT_EQ(r.logicalErrors.trials, 3000u);
    EXPECT_LT(r.ler(), 0.5);
}

TEST(Robustness, LargeDistanceBuilds)
{
    // d = 11 (the appendix's scale): the full pipeline builds and
    // decodes within sane time.
    ExperimentConfig cfg;
    cfg.distance = 11;
    cfg.physicalErrorRate = 1e-4;
    ExperimentContext ctx(cfg);
    EXPECT_EQ(ctx.gwt().size(), syndromeVectorLength(11, 11));
    auto r = runMemoryExperiment(ctx, astreaGFactory(), 2000, 11);
    EXPECT_EQ(r.logicalErrors.trials, 2000u);
}

} // namespace
} // namespace astrea
