/**
 * @file
 * Randomized differential testing across the decoder suite.
 *
 * For a spread of random (distance, error-rate, seed) configurations,
 * sample real syndromes and check the cross-decoder invariants that
 * must hold shot by shot, independent of statistics:
 *
 *  - MWPM's matching weight lower-bounds every other matcher's;
 *  - Astrea equals the exact optimum over quantized weights (HW <= 10);
 *  - LUT and MWPM predict identically;
 *  - every decoder returns a well-formed result on every input.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "decoders/greedy_decoder.hh"
#include "decoders/lut_decoder.hh"
#include "decoders/mwpm_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "harness/memory_experiment.hh"
#include "matching/dp_matcher.hh"

namespace astrea
{
namespace
{

// gtest names each instance after the raw bytes of its Config (there is
// no printer for it), so every byte must be set: the four after
// `distance` were padding, which took whatever was on the stack and
// renamed the tests from run to run. `nameTag` fills them; its values
// keep the names these tests have always been listed under.
struct Config
{
    uint32_t distance;
    uint32_t nameTag;
    double p;
    uint64_t seed;
};
static_assert(sizeof(Config) == 24, "Config must have no padding");

class DifferentialTest : public ::testing::TestWithParam<Config>
{
};

TEST_P(DifferentialTest, CrossDecoderInvariants)
{
    const Config param = GetParam();
    ExperimentConfig cfg;
    cfg.distance = param.distance;
    cfg.physicalErrorRate = param.p;
    ExperimentContext ctx(cfg);

    MwpmDecoder mwpm(ctx.gwt());
    AstreaDecoder astrea(ctx.gwt());
    LutDecoder lut(ctx.gwt());
    GreedyDecoder greedy(ctx.gwt());
    UnionFindDecoder uf(ctx.graph());

    Rng rng(param.seed);
    BitVec dets, obs;
    int nontrivial = 0;
    for (int s = 0; s < 1500 && nontrivial < 400; s++) {
        ctx.sampler().sample(rng, dets, obs);
        auto defects = dets.onesIndices();
        if (defects.empty())
            continue;
        nontrivial++;

        DecodeResult rm = mwpm.decode(defects);
        DecodeResult rg = greedy.decode(defects);
        DecodeResult ru = uf.decode(defects);
        DecodeResult rl = lut.decode(defects);

        // MWPM is the optimum over exact weights.
        EXPECT_LE(rm.matchingWeight, rg.matchingWeight + 1e-9);
        EXPECT_TRUE(std::isfinite(ru.matchingWeight));
        // LUT is memoized MWPM.
        EXPECT_EQ(rl.obsMask, rm.obsMask);
        // Every matching covers all defects: reported pairs count.
        size_t covered = 0;
        for (auto [a, b] : rm.matchedPairs)
            covered += (b < 0) ? 1 : 2;
        EXPECT_EQ(covered, defects.size());

        if (defects.size() <= 10) {
            DecodeResult ra = astrea.decode(defects);
            ASSERT_FALSE(ra.gaveUp);
            MatchingSolution dp = dpMatchWithBoundary(
                static_cast<int>(defects.size()),
                [&](int i, int j) {
                    return static_cast<double>(
                        ctx.gwt().pairWeight(defects[i], defects[j]));
                },
                [&](int i) {
                    return static_cast<double>(
                        ctx.gwt().pairWeight(defects[i], defects[i]));
                });
            EXPECT_NEAR(ra.matchingWeight * kWeightScale,
                        dp.totalWeight, 1e-6);
        }
    }
    EXPECT_GT(nontrivial, 50);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DifferentialTest,
    ::testing::Values(Config{3, 0, 2e-3, 101},
                      Config{3, 0xCAC00000u, 8e-3, 202},
                      Config{5, 0, 1e-3, 303}, Config{5, 0, 4e-3, 404},
                      Config{7, 0, 1e-3, 505}));

} // namespace
} // namespace astrea
