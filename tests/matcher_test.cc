/**
 * @file
 * Tests for the exhaustive enumerator and the bitmask DP matcher.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "common/weight.hh"
#include "matching/blossom.hh"
#include "matching/dp_matcher.hh"
#include "matching/enumerator.hh"

namespace astrea
{
namespace
{

TEST(Enumerator, CountsMatchDoubleFactorial)
{
    // Paper Eq. 2: w! / (2^(w/2) (w/2)!).
    EXPECT_EQ(perfectMatchingCount(0), 1u);
    EXPECT_EQ(perfectMatchingCount(2), 1u);
    EXPECT_EQ(perfectMatchingCount(4), 3u);
    EXPECT_EQ(perfectMatchingCount(6), 15u);
    EXPECT_EQ(perfectMatchingCount(8), 105u);
    EXPECT_EQ(perfectMatchingCount(10), 945u);
    EXPECT_EQ(perfectMatchingCount(20), 654729075u);  // ~6.5e8, Sec 5.7.
}

class EnumeratorTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EnumeratorTest, VisitsEveryMatchingExactlyOnce)
{
    const int m = GetParam();
    std::set<PairList> seen;
    forEachPerfectMatchingT(m, [&](const PairList &pl) {
        // Well-formed: each node exactly once, pairs ordered.
        std::set<int> used;
        for (auto [i, j] : pl) {
            EXPECT_LT(i, j);
            EXPECT_TRUE(used.insert(i).second);
            EXPECT_TRUE(used.insert(j).second);
        }
        EXPECT_EQ(used.size(), static_cast<size_t>(m));
        EXPECT_TRUE(seen.insert(pl).second) << "duplicate matching";
    });
    EXPECT_EQ(seen.size(), perfectMatchingCount(m));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EnumeratorTest,
                         ::testing::Values(0, 2, 4, 6, 8, 10));

TEST(Enumerator, ExhaustiveMinFindsOptimum)
{
    // Weights chosen so the best matching is (0,3), (1,2).
    auto w = [](int i, int j) -> double {
        if ((i == 0 && j == 3) || (i == 1 && j == 2))
            return 1.0;
        return 10.0;
    };
    PairList best;
    double total = exhaustiveMinWeightMatching(4, w, best);
    EXPECT_DOUBLE_EQ(total, 2.0);
    std::set<PairList> expect{{{0, 3}, {1, 2}}, {{1, 2}, {0, 3}}};
    std::set<std::pair<int, int>> got(best.begin(), best.end());
    EXPECT_TRUE(got.count({0, 3}));
    EXPECT_TRUE(got.count({1, 2}));
}

TEST(DpMatcher, EmptyInput)
{
    auto sol = dpMatchWithBoundary(
        0, [](int, int) { return 0.0; }, [](int) { return 0.0; });
    EXPECT_DOUBLE_EQ(sol.totalWeight, 0.0);
    EXPECT_TRUE(sol.pairs.empty());
}

TEST(DpMatcher, SingleDefectGoesToBoundary)
{
    auto sol = dpMatchWithBoundary(
        1, [](int, int) { return 0.0; }, [](int) { return 3.5; });
    EXPECT_DOUBLE_EQ(sol.totalWeight, 3.5);
    ASSERT_EQ(sol.pairs.size(), 1u);
    EXPECT_EQ(sol.pairs[0], (std::pair<int, int>{0, -1}));
}

TEST(DpMatcher, PairBeatsTwoBoundaries)
{
    auto sol = dpMatchWithBoundary(
        2, [](int, int) { return 1.0; }, [](int) { return 2.0; });
    EXPECT_DOUBLE_EQ(sol.totalWeight, 1.0);
    ASSERT_EQ(sol.pairs.size(), 1u);
    EXPECT_EQ(sol.pairs[0], (std::pair<int, int>{0, 1}));
}

TEST(DpMatcher, TwoBoundariesBeatExpensivePair)
{
    auto sol = dpMatchWithBoundary(
        2, [](int, int) { return 10.0; }, [](int) { return 2.0; });
    EXPECT_DOUBLE_EQ(sol.totalWeight, 4.0);
    EXPECT_EQ(sol.pairs.size(), 2u);
}

TEST(DpMatcher, OddCountAlwaysUsesBoundaryOnce)
{
    Rng rng(5);
    for (int trial = 0; trial < 30; trial++) {
        const int n = 5;
        std::vector<std::vector<double>> w(n, std::vector<double>(n));
        std::vector<double> wb(n);
        for (int i = 0; i < n; i++) {
            wb[i] = 1.0 + static_cast<double>(rng.uniformInt(20));
            for (int j = i + 1; j < n; j++)
                w[i][j] = w[j][i] =
                    1.0 + static_cast<double>(rng.uniformInt(20));
        }
        auto sol = dpMatchWithBoundary(
            n, [&](int i, int j) { return w[i][j]; },
            [&](int i) { return wb[i]; });
        int boundary_matches = 0;
        std::set<int> covered;
        for (auto [i, j] : sol.pairs) {
            covered.insert(i);
            if (j == -1)
                boundary_matches++;
            else
                covered.insert(j);
        }
        EXPECT_EQ(covered.size(), static_cast<size_t>(n));
        EXPECT_EQ(boundary_matches % 2, 1);
    }
}

TEST(DpMatcher, ReconstructionWeightIsConsistent)
{
    Rng rng(17);
    for (int trial = 0; trial < 50; trial++) {
        const int n = 2 + static_cast<int>(rng.uniformInt(9));
        std::vector<std::vector<double>> w(n, std::vector<double>(n));
        std::vector<double> wb(n);
        for (int i = 0; i < n; i++) {
            wb[i] = static_cast<double>(rng.uniformInt(30));
            for (int j = i + 1; j < n; j++)
                w[i][j] = w[j][i] =
                    static_cast<double>(rng.uniformInt(30));
        }
        auto sol = dpMatchWithBoundary(
            n, [&](int i, int j) { return w[i][j]; },
            [&](int i) { return wb[i]; });
        double recomputed = 0.0;
        for (auto [i, j] : sol.pairs)
            recomputed += (j == -1) ? wb[i] : w[std::min(i, j)]
                                               [std::max(i, j)];
        EXPECT_DOUBLE_EQ(recomputed, sol.totalWeight);
    }
}

TEST(DpMatcher, MatchesExhaustiveWithVirtualBoundary)
{
    // For even n, DP-with-boundary must equal exhaustive matching over
    // effective weights min(w_ij, wb_i + wb_j).
    Rng rng(23);
    for (int trial = 0; trial < 40; trial++) {
        const int n = 2 * (1 + rng.uniformInt(4));  // 2..8, even.
        std::vector<std::vector<double>> w(n, std::vector<double>(n));
        std::vector<double> wb(n);
        for (int i = 0; i < n; i++) {
            wb[i] = 1.0 + static_cast<double>(rng.uniformInt(25));
            for (int j = i + 1; j < n; j++)
                w[i][j] = w[j][i] =
                    1.0 + static_cast<double>(rng.uniformInt(25));
        }
        auto dp = dpMatchWithBoundary(
            n, [&](int i, int j) { return w[i][j]; },
            [&](int i) { return wb[i]; });
        PairList best;
        double ex = exhaustiveMinWeightMatching(
            n,
            [&](int i, int j) {
                return std::min(w[std::min(i, j)][std::max(i, j)],
                                wb[i] + wb[j]);
            },
            best);
        EXPECT_DOUBLE_EQ(dp.totalWeight, ex) << "trial " << trial;
    }
}

namespace
{

/**
 * Random quantized LWT tile: byte weights in 1..48 (1/8-decade LSB),
 * exactly the domain the hardware enumerator compares in. Returned as
 * decade doubles qw / kWeightScale, which are exactly representable.
 */
struct QuantizedTile
{
    std::vector<std::vector<double>> w;
    std::vector<double> wb;
    std::vector<std::vector<int64_t>> qw;
    std::vector<int64_t> qwb;
};

QuantizedTile
randomTile(Rng &rng, int m)
{
    QuantizedTile t;
    t.w.assign(m, std::vector<double>(m, 0.0));
    t.qw.assign(m, std::vector<int64_t>(m, 0));
    t.wb.resize(m);
    t.qwb.resize(m);
    for (int i = 0; i < m; i++) {
        t.qwb[i] = 1 + static_cast<int64_t>(rng.uniformInt(48));
        t.wb[i] = static_cast<double>(t.qwb[i]) / kWeightScale;
        for (int j = i + 1; j < m; j++) {
            t.qw[i][j] = t.qw[j][i] =
                1 + static_cast<int64_t>(rng.uniformInt(48));
            t.w[i][j] = t.w[j][i] =
                static_cast<double>(t.qw[i][j]) / kWeightScale;
        }
    }
    return t;
}

/** Blossom MWPM with per-defect boundary copies, weight in decades. */
double
blossomWeightWithBoundary(const QuantizedTile &t, int m)
{
    constexpr int64_t kForbidden = 1ll << 40;
    auto weight = [&](int i, int j) -> int64_t {
        bool i_real = i < m, j_real = j < m;
        if (i_real && j_real)
            return t.qw[i][j];
        if (!i_real && !j_real)
            return 0;
        int real = i_real ? i : j;
        int copy = (i_real ? j : i) - m;
        return copy == real ? t.qwb[real] : kForbidden;
    };
    auto mate = minWeightPerfectMatching(2 * m, weight);
    double total = 0.0;
    for (int i = 0; i < m; i++) {
        if (mate[i] < m) {
            if (i < mate[i])
                total += t.w[i][mate[i]];
        } else {
            EXPECT_EQ(mate[i] - m, i)
                << "defect matched to a foreign boundary copy";
            total += t.wb[i];
        }
    }
    return total;
}

} // namespace

TEST(MatcherHierarchy, DpBlossomAndEnumeratorAgreeOnQuantizedTiles)
{
    // The oracle hierarchy the accuracy auditor relies on: on random
    // quantized LWT tiles, for every even m <= 10,
    //
    //   exact-DP weight <= blossom weight <= Astrea weight,
    //
    // where the Astrea weight is the exhaustive enumerator's optimum
    // over effective pair weights min(w_ij, wb_i + wb_j) — the matching
    // the hardware computes. All three solve the same relaxation here,
    // so the inequalities collapse to equalities; asserting <= in both
    // directions makes a regression in any one of them visible.
    Rng rng(2023);
    for (int m = 2; m <= 10; m += 2) {
        for (int trial = 0; trial < 20; trial++) {
            QuantizedTile t = randomTile(rng, m);

            auto dp = dpMatchWithBoundary(
                m, [&](int i, int j) { return t.w[i][j]; },
                [&](int i) { return t.wb[i]; });
            double blossom = blossomWeightWithBoundary(t, m);
            PairList best;
            double astrea = exhaustiveMinWeightMatching(
                m,
                [&](int i, int j) {
                    return std::min(
                        t.w[std::min(i, j)][std::max(i, j)],
                        t.wb[i] + t.wb[j]);
                },
                best);

            // Quantized decade sums are multiples of 1/8 and exactly
            // representable, so the comparisons are exact.
            EXPECT_LE(dp.totalWeight, blossom)
                << "m=" << m << " trial=" << trial;
            EXPECT_LE(blossom, astrea)
                << "m=" << m << " trial=" << trial;
            // DP agrees with the legacy enumerator bit-for-bit.
            EXPECT_EQ(dp.totalWeight, astrea)
                << "m=" << m << " trial=" << trial;
        }
    }
}

TEST(DpMatcher, RejectsTooManyDefects)
{
    EXPECT_DEATH(dpMatchWithBoundary(
                     21, [](int, int) { return 1.0; },
                     [](int) { return 1.0; }),
                 "20");
}

} // namespace
} // namespace astrea
