/**
 * @file
 * Tests for the Astrea decoder: the exactness property (Astrea == true
 * MWPM for HW <= 10, over quantized and over exact weights), the
 * latency model (paper Sec. 5.4), and give-up behavior.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "astrea/astrea_decoder.hh"
#include "common/rng.hh"
#include "harness/memory_experiment.hh"
#include "matching/dp_matcher.hh"

namespace astrea
{
namespace
{

const ExperimentContext &
sharedContext()
{
    static ExperimentContext ctx = [] {
        ExperimentConfig cfg;
        cfg.distance = 5;
        cfg.physicalErrorRate = 2e-3;
        return ExperimentContext(cfg);
    }();
    return ctx;
}

// ------------------------------------------------------- latency model

TEST(AstreaLatency, CycleModelMatchesPaper)
{
    // Sec. 5.4: decode cycles 1 / 11 / 103 for HW 3-6 / 7-8 / 9-10,
    // plus HW+1 transfer cycles; HW <= 2 is free.
    EXPECT_EQ(AstreaDecoder::totalCycles(0), 0u);
    EXPECT_EQ(AstreaDecoder::totalCycles(1), 0u);
    EXPECT_EQ(AstreaDecoder::totalCycles(2), 0u);
    EXPECT_EQ(AstreaDecoder::totalCycles(3), 5u);
    EXPECT_EQ(AstreaDecoder::totalCycles(6), 8u);
    EXPECT_EQ(AstreaDecoder::totalCycles(7), 19u);
    EXPECT_EQ(AstreaDecoder::totalCycles(8), 20u);
    EXPECT_EQ(AstreaDecoder::totalCycles(9), 113u);
    EXPECT_EQ(AstreaDecoder::totalCycles(10), 114u);
}

TEST(AstreaLatency, WorstCaseIs456ns)
{
    // 114 cycles at 250 MHz = 456 ns (paper abstract and Sec. 5.4).
    EXPECT_DOUBLE_EQ(cyclesToNs(AstreaDecoder::totalCycles(10)), 456.0);
}

TEST(AstreaLatency, Hw6CaseIs32ns)
{
    // d = 3 max in Fig. 9: 8 cycles = 32 ns.
    EXPECT_DOUBLE_EQ(cyclesToNs(AstreaDecoder::totalCycles(6)), 32.0);
}

TEST(AstreaLatency, Hw8CaseIs80ns)
{
    // d = 5 max in Fig. 9: 20 cycles = 80 ns.
    EXPECT_DOUBLE_EQ(cyclesToNs(AstreaDecoder::totalCycles(8)), 80.0);
}

// ------------------------------------------------------------- decode

TEST(AstreaDecode, EmptySyndrome)
{
    AstreaDecoder dec(sharedContext().gwt());
    DecodeResult r = dec.decode({});
    EXPECT_FALSE(r.gaveUp);
    EXPECT_EQ(r.obsMask, 0u);
    EXPECT_EQ(r.cycles, 0u);
}

TEST(AstreaDecode, GivesUpAboveMaxHw)
{
    AstreaDecoder dec(sharedContext().gwt());
    std::vector<uint32_t> defects;
    for (uint32_t i = 0; i < 11; i++)
        defects.push_back(i);
    DecodeResult r = dec.decode(defects);
    EXPECT_TRUE(r.gaveUp);
    EXPECT_EQ(dec.gaveUpCount(), 1u);
}

TEST(AstreaDecode, ConfigurableMaxHw)
{
    AstreaDecoder dec(sharedContext().gwt(), AstreaConfig{6});
    std::vector<uint32_t> defects{0, 1, 2, 3, 4, 5, 6};
    EXPECT_TRUE(dec.decode(defects).gaveUp);
    EXPECT_FALSE(dec.decode({0, 1, 2}).gaveUp);
}

/**
 * Exactness property: for every Hamming weight up to 10, Astrea's
 * brute-force result equals the true MWPM (computed by the DP with
 * boundary) over the same quantized weights.
 */
class AstreaExactnessTest : public ::testing::TestWithParam<int>
{
};

TEST_P(AstreaExactnessTest, MatchesDpOptimum)
{
    const int hw = GetParam();
    const auto &ctx = sharedContext();
    const auto &gwt = ctx.gwt();
    AstreaDecoder dec(gwt);
    Rng rng(500 + hw);

    for (int trial = 0; trial < 40; trial++) {
        // Random distinct defect set of the requested size.
        std::vector<uint32_t> defects;
        while (defects.size() < static_cast<size_t>(hw)) {
            uint32_t d =
                static_cast<uint32_t>(rng.uniformInt(gwt.size()));
            if (std::find(defects.begin(), defects.end(), d) ==
                defects.end()) {
                defects.push_back(d);
            }
        }
        std::sort(defects.begin(), defects.end());

        DecodeResult r = dec.decode(defects);
        ASSERT_FALSE(r.gaveUp);

        MatchingSolution dp = dpMatchWithBoundary(
            hw,
            [&](int i, int j) {
                return static_cast<double>(
                    gwt.pairWeight(defects[i], defects[j]));
            },
            [&](int i) {
                return static_cast<double>(
                    gwt.pairWeight(defects[i], defects[i]));
            });

        EXPECT_NEAR(r.matchingWeight * kWeightScale, dp.totalWeight,
                    1e-6)
            << "hw=" << hw << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(HammingWeights, AstreaExactnessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10));

/**
 * Same exactness property, exact-weight ablation configuration. The DP
 * gets the decoder's own 2^-16-decade fixed-point weights; they are
 * integers, so a double holds every sum exactly and the optimum must
 * match bit for bit. Odd Hamming weights exercise the virtual
 * boundary node of the decoder's tile.
 */
class AstreaExactWeightTest : public ::testing::TestWithParam<int>
{
};

TEST_P(AstreaExactWeightTest, MatchesDpOnExactWeights)
{
    const int hw = GetParam();
    const auto &ctx = sharedContext();
    const auto &gwt = ctx.gwt();
    AstreaConfig cfg;
    cfg.quantizedWeights = false;
    AstreaDecoder dec(gwt, cfg);
    Rng rng(900 + hw);

    constexpr double kExactScale = 65536.0;
    auto fixed_point = [&](uint32_t a, uint32_t b) {
        const double decades = gwt.exactWeight(a, b);
        if (!std::isfinite(decades))
            return decades;
        return static_cast<double>(
            static_cast<WeightSum>(decades * kExactScale));
    };

    for (int trial = 0; trial < 25; trial++) {
        std::vector<uint32_t> defects;
        while (defects.size() < static_cast<size_t>(hw)) {
            uint32_t d =
                static_cast<uint32_t>(rng.uniformInt(gwt.size()));
            if (std::find(defects.begin(), defects.end(), d) ==
                defects.end()) {
                defects.push_back(d);
            }
        }
        std::sort(defects.begin(), defects.end());

        DecodeResult r = dec.decode(defects);
        ASSERT_FALSE(r.gaveUp);

        MatchingSolution dp = dpMatchWithBoundary(
            hw,
            [&](int i, int j) {
                return fixed_point(defects[i], defects[j]);
            },
            [&](int i) { return fixed_point(defects[i], defects[i]); });
        EXPECT_EQ(r.matchingWeight * kExactScale, dp.totalWeight)
            << "hw=" << hw << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(HammingWeights, AstreaExactWeightTest,
                         ::testing::Range(1, 11));

TEST(AstreaDecode, AgreesWithMwpmOnRealShots)
{
    // On sampled syndromes with HW <= 10, Astrea's matching weight can
    // differ from the exact-weight MWPM only through 8-bit
    // quantization; predictions should almost always coincide.
    const auto &ctx = sharedContext();
    AstreaDecoder astrea_dec(ctx.gwt());
    auto mwpm = mwpmFactory()(ctx);

    Rng rng(9);
    BitVec dets, obs;
    int disagreements = 0, decoded = 0;
    for (int s = 0; s < 3000; s++) {
        ctx.sampler().sample(rng, dets, obs);
        auto defects = dets.onesIndices();
        if (defects.empty() || defects.size() > 10)
            continue;
        decoded++;
        DecodeResult a = astrea_dec.decode(defects);
        DecodeResult m = mwpm->decode(defects);
        if (a.obsMask != m.obsMask)
            disagreements++;
    }
    ASSERT_GT(decoded, 500);
    // Quantization ties can flip rare predictions; bound the rate.
    EXPECT_LT(disagreements, decoded / 50);
}

TEST(AstreaDecode, LatencyFollowsHammingWeight)
{
    const auto &ctx = sharedContext();
    AstreaDecoder dec(ctx.gwt());
    Rng rng(11);
    BitVec dets, obs;
    for (int s = 0; s < 2000; s++) {
        ctx.sampler().sample(rng, dets, obs);
        auto defects = dets.onesIndices();
        if (defects.empty() || defects.size() > 10)
            continue;
        DecodeResult r = dec.decode(defects);
        EXPECT_EQ(r.cycles, AstreaDecoder::totalCycles(
                                static_cast<uint32_t>(defects.size())));
        EXPECT_DOUBLE_EQ(r.latencyNs, cyclesToNs(r.cycles));
    }
}

} // namespace
} // namespace astrea
