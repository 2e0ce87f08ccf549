/**
 * @file
 * Tests for the baseline decoders: software MWPM, Union-Find, Clique,
 * and the LUT decoder.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "decoders/clique_decoder.hh"
#include "decoders/lut_decoder.hh"
#include "decoders/mwpm_decoder.hh"
#include "decoders/union_find_decoder.hh"
#include "harness/memory_experiment.hh"
#include "matching/dp_matcher.hh"

namespace astrea
{
namespace
{

const ExperimentContext &
d5Context()
{
    static ExperimentContext ctx = [] {
        ExperimentConfig cfg;
        cfg.distance = 5;
        cfg.physicalErrorRate = 3e-3;
        return ExperimentContext(cfg);
    }();
    return ctx;
}

std::vector<uint32_t>
sampleDefects(const ExperimentContext &ctx, Rng &rng, BitVec &dets,
              BitVec &obs)
{
    ctx.sampler().sample(rng, dets, obs);
    return dets.onesIndices();
}

// --------------------------------------------------------------- MWPM

TEST(MwpmDecoder, EmptySyndrome)
{
    MwpmDecoder dec(d5Context().gwt());
    DecodeResult r = dec.decode({});
    EXPECT_EQ(r.obsMask, 0u);
    EXPECT_FALSE(r.gaveUp);
}

TEST(MwpmDecoder, SingleDefectMatchesBoundary)
{
    const auto &gwt = d5Context().gwt();
    MwpmDecoder dec(gwt);
    DecodeResult r = dec.decode({3});
    EXPECT_EQ(r.obsMask, gwt.pairObs(3, 3));
    EXPECT_NEAR(r.matchingWeight, gwt.exactWeight(3, 3), 1e-9);
}

TEST(MwpmDecoder, TotalWeightEqualsDpOptimum)
{
    const auto &ctx = d5Context();
    const auto &gwt = ctx.gwt();
    MwpmDecoder dec(gwt);
    Rng rng(31);
    BitVec dets, obs;
    int checked = 0;
    while (checked < 50) {
        auto defects = sampleDefects(ctx, rng, dets, obs);
        if (defects.empty() || defects.size() > 14)
            continue;
        checked++;
        DecodeResult r = dec.decode(defects);
        MatchingSolution dp = dpMatchWithBoundary(
            static_cast<int>(defects.size()),
            [&](int i, int j) {
                return gwt.exactWeight(defects[i], defects[j]);
            },
            [&](int i) {
                return gwt.exactWeight(defects[i], defects[i]);
            });
        EXPECT_NEAR(r.matchingWeight, dp.totalWeight, 1e-3);
    }
}

TEST(MwpmDecoder, PairCheaperThroughBoundaryReportsTwoBoundaryPairs)
{
    // Defects 0 and 1: the direct chain costs 5 decades (obs 1), each
    // boundary 1 decade (obs 2 and 4). The optimum sends both to the
    // boundary, and the decoder names it as two boundary pairs.
    const GlobalWeightTable gwt(2, {8, 40, 40, 8}, {1.0, 5.0, 5.0, 1.0},
                                {2, 1, 1, 4});
    MwpmDecoder dec(gwt);
    DecodeResult r = dec.decode({0, 1});
    const std::vector<std::pair<int, int>> expect = {{0, -1}, {1, -1}};
    EXPECT_EQ(r.matchedPairs, expect);
    EXPECT_DOUBLE_EQ(r.matchingWeight, 2.0);
    EXPECT_EQ(r.obsMask, 6u);
}

TEST(MwpmDecoder, ReportsWallClockLatency)
{
    MwpmDecoder dec(d5Context().gwt());
    DecodeResult r = dec.decode({0, 5, 9, 20});
    EXPECT_GT(r.latencyNs, 0.0);
    EXPECT_EQ(r.cycles, 0u);
}

// ----------------------------------------------------------- UnionFind

TEST(UnionFind, EmptySyndrome)
{
    UnionFindDecoder dec(d5Context().graph());
    DecodeResult r = dec.decode({});
    EXPECT_EQ(r.obsMask, 0u);
}

TEST(UnionFind, NeverCrashesOnRandomShots)
{
    const auto &ctx = d5Context();
    UnionFindDecoder dec(ctx.graph());
    Rng rng(41);
    BitVec dets, obs;
    for (int s = 0; s < 5000; s++) {
        auto defects = sampleDefects(ctx, rng, dets, obs);
        DecodeResult r = dec.decode(defects);
        EXPECT_FALSE(r.gaveUp);
    }
}

TEST(UnionFind, AccuracyBetweenRandomAndMwpm)
{
    // UF must beat "no correction" but may trail MWPM.
    const auto &ctx = d5Context();
    UnionFindDecoder uf(ctx.graph());
    MwpmDecoder mwpm(ctx.gwt());
    Rng rng(43);
    BitVec dets, obs;
    int shots = 20000;
    int uf_err = 0, mwpm_err = 0, none_err = 0;
    for (int s = 0; s < shots; s++) {
        auto defects = sampleDefects(ctx, rng, dets, obs);
        uint64_t actual = obs.none() ? 0u : 1u;
        if (uf.decode(defects).obsMask != actual)
            uf_err++;
        if (mwpm.decode(defects).obsMask != actual)
            mwpm_err++;
        if (actual != 0)
            none_err++;
    }
    EXPECT_LT(uf_err, none_err);         // Better than doing nothing.
    EXPECT_LE(mwpm_err, uf_err + 5);     // MWPM at least as good.
    EXPECT_GT(uf_err, 0);                // Not magically perfect.
}

TEST(UnionFind, SingleDefectProducesBoundaryCorrection)
{
    // A lone defect adjacent to the boundary must resolve through it.
    const auto &ctx = d5Context();
    const auto &graph = ctx.graph();
    // Find a detector with a boundary edge.
    uint32_t node = 0;
    bool found = false;
    for (uint32_t v = 0; v < graph.numNodes() && !found; v++) {
        if (graph.boundaryEdge(v) >= 0) {
            node = v;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    UnionFindDecoder dec(graph);
    DecodeResult r = dec.decode({node});
    // The correction weight must be positive (some edges chosen).
    EXPECT_GT(r.matchingWeight, 0.0);
}

TEST(UnionFind, WeightedGrowthDecodesEverything)
{
    const auto &ctx = d5Context();
    UnionFindDecoder dec(ctx.graph(), UnionFindConfig{true});
    EXPECT_EQ(dec.name(), "UF-weighted");
    Rng rng(61);
    BitVec dets, obs;
    for (int s = 0; s < 3000; s++) {
        auto defects = sampleDefects(ctx, rng, dets, obs);
        DecodeResult r = dec.decode(defects);
        EXPECT_FALSE(r.gaveUp);
    }
}

TEST(UnionFind, WeightedGrowthAtLeastAsAccurate)
{
    // Weighted growth expands along likely chains first; it should not
    // be meaningfully worse than unweighted growth.
    const auto &ctx = d5Context();
    const uint64_t shots = 60000;
    auto unweighted =
        runMemoryExperiment(ctx, unionFindFactory(), shots, 67);
    auto weighted = runMemoryExperiment(
        ctx, unionFindFactory(UnionFindConfig{true}), shots, 67);
    ASSERT_GT(unweighted.logicalErrors.successes, 20u);
    EXPECT_LE(weighted.logicalErrors.successes,
              unweighted.logicalErrors.successes * 13 / 10);
}

// -------------------------------------------------------------- Clique

TEST(Clique, EmptySyndromeIsLocal)
{
    const auto &ctx = d5Context();
    CliqueDecoder dec(ctx.graph(), ctx.gwt());
    dec.decode({});
    EXPECT_DOUBLE_EQ(dec.localFraction(), 1.0);
}

TEST(Clique, IsolatedPairHandledLocally)
{
    // Take any edge between two detectors; with only those two defects
    // set, the local stage should commit them without MWPM fallback.
    const auto &ctx = d5Context();
    const auto &graph = ctx.graph();
    const GraphEdge *edge = nullptr;
    for (const auto &e : graph.edges()) {
        if (e.v != kBoundaryNode) {
            edge = &e;
            break;
        }
    }
    ASSERT_NE(edge, nullptr);
    CliqueDecoder dec(ctx.graph(), ctx.gwt());
    std::vector<uint32_t> defects{std::min(edge->u, edge->v),
                                  std::max(edge->u, edge->v)};
    DecodeResult r = dec.decode(defects);
    EXPECT_EQ(r.cycles, 1u);  // Fast path.
    EXPECT_DOUBLE_EQ(dec.localFraction(), 1.0);
    EXPECT_EQ(r.obsMask, edge->obsMask);
}

TEST(Clique, AccuracyCloseToMwpm)
{
    const auto &ctx = d5Context();
    CliqueDecoder clique(ctx.graph(), ctx.gwt());
    MwpmDecoder mwpm(ctx.gwt());
    Rng rng(47);
    BitVec dets, obs;
    int shots = 20000;
    int clique_err = 0, mwpm_err = 0;
    for (int s = 0; s < shots; s++) {
        auto defects = sampleDefects(ctx, rng, dets, obs);
        uint64_t actual = obs.none() ? 0u : 1u;
        if (clique.decode(defects).obsMask != actual)
            clique_err++;
        if (mwpm.decode(defects).obsMask != actual)
            mwpm_err++;
    }
    EXPECT_GE(clique_err, mwpm_err - 5);
    // Within an order of magnitude of MWPM (paper: up to ~10x worse).
    EXPECT_LT(clique_err, 20 * std::max(mwpm_err, 5));
}

TEST(Clique, FallbackLatencyIncludesRoundTrip)
{
    // A dense defect blob cannot be all-local; the fallback charges
    // the 1 us transport penalty.
    const auto &ctx = d5Context();
    CliqueDecoder dec(ctx.graph(), ctx.gwt());
    Rng rng(53);
    BitVec dets, obs;
    for (int s = 0; s < 20000; s++) {
        auto defects = sampleDefects(ctx, rng, dets, obs);
        DecodeResult r = dec.decode(defects);
        if (dec.localFraction() < 1.0) {
            EXPECT_GT(r.latencyNs, 1000.0);
            return;
        }
    }
    FAIL() << "no fallback case sampled";
}

// ----------------------------------------------------------------- LUT

TEST(Lut, MatchesMwpmAlways)
{
    const auto &ctx = d5Context();
    LutDecoder lut(ctx.gwt());
    MwpmDecoder mwpm(ctx.gwt());
    Rng rng(59);
    BitVec dets, obs;
    for (int s = 0; s < 3000; s++) {
        auto defects = sampleDefects(ctx, rng, dets, obs);
        EXPECT_EQ(lut.decode(defects).obsMask,
                  mwpm.decode(defects).obsMask);
    }
}

TEST(Lut, MemoizesEntries)
{
    const auto &ctx = d5Context();
    LutDecoder lut(ctx.gwt());
    EXPECT_EQ(lut.populatedEntries(), 0u);
    lut.decode({1, 2});
    EXPECT_EQ(lut.populatedEntries(), 1u);
    lut.decode({1, 2});
    EXPECT_EQ(lut.populatedEntries(), 1u);
    lut.decode({1, 3});
    EXPECT_EQ(lut.populatedEntries(), 2u);
}

TEST(Lut, ConstantOneAccessLatency)
{
    LutDecoder lut(d5Context().gwt());
    DecodeResult r = lut.decode({0, 1});
    EXPECT_EQ(r.cycles, 1u);
    EXPECT_DOUBLE_EQ(r.latencyNs, 4.0);
}

TEST(Lut, HardwareFeasibilityThreshold)
{
    // d = 3 (16-bit syndromes) is implementable; d = 5 with 5 rounds
    // (72-bit) and d = 7 (192-bit) are not (paper Sec. 5.6).
    ExperimentConfig c3;
    c3.distance = 3;
    c3.physicalErrorRate = 1e-3;
    ExperimentContext ctx3(c3);
    LutDecoder lut3(ctx3.gwt());
    EXPECT_TRUE(lut3.hardwareFeasible());
    EXPECT_EQ(lut3.fullTableAddressBits(), 16u);

    LutDecoder lut5(d5Context().gwt());
    EXPECT_FALSE(lut5.hardwareFeasible());
    EXPECT_EQ(lut5.fullTableAddressBits(), 72u);
}

} // namespace
} // namespace astrea
