/**
 * @file
 * Property tests for the blossom matcher: agreement with the exhaustive
 * enumerator and the bitmask DP on thousands of random instances, plus
 * hand-checked cases that exercise blossom formation and expansion.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hh"
#include "matching/blossom.hh"
#include "matching/dp_matcher.hh"
#include "matching/enumerator.hh"

namespace astrea
{
namespace
{

int64_t
matchingWeight(const std::vector<int> &mate,
               const std::function<int64_t(int, int)> &w)
{
    int64_t total = 0;
    for (int v = 0; v < static_cast<int>(mate.size()); v++) {
        if (mate[v] > v)
            total += w(v, mate[v]);
    }
    return total;
}

TEST(Blossom, EmptyGraph)
{
    auto mate = maxWeightMatching(3, {}, false);
    EXPECT_EQ(mate, (std::vector<int>{-1, -1, -1}));
}

TEST(Blossom, SingleEdge)
{
    auto mate = maxWeightMatching(2, {{0, 1, 5}}, false);
    EXPECT_EQ(mate[0], 1);
    EXPECT_EQ(mate[1], 0);
}

TEST(Blossom, PrefersHeavierEdge)
{
    // Path 0-1-2: edges (0,1,2) and (1,2,3); only one can be matched.
    auto mate = maxWeightMatching(3, {{0, 1, 2}, {1, 2, 3}}, false);
    EXPECT_EQ(mate[0], -1);
    EXPECT_EQ(mate[1], 2);
    EXPECT_EQ(mate[2], 1);
}

TEST(Blossom, PrefersTwoEdgesOverOneHeavy)
{
    // Path 0-1-2-3: middle edge weight 5, ends weight 3 each; taking
    // both ends (6) beats the middle (5).
    auto mate = maxWeightMatching(
        4, {{0, 1, 3}, {1, 2, 5}, {2, 3, 3}}, false);
    EXPECT_EQ(mate[0], 1);
    EXPECT_EQ(mate[2], 3);
}

TEST(Blossom, MaxCardinalityForcesMatch)
{
    // Without max-cardinality, a light middle edge may be dropped; with
    // it, cardinality comes first.
    auto free_mate = maxWeightMatching(
        4, {{0, 1, 10}, {1, 2, 1}, {2, 3, 10}}, false);
    EXPECT_EQ(free_mate[0], 1);
    EXPECT_EQ(free_mate[2], 3);

    auto mate = maxWeightMatching(
        4, {{1, 2, 1}}, true);
    EXPECT_EQ(mate[1], 2);
}

TEST(Blossom, OddCycleFormsBlossom)
{
    // Triangle: only one edge can be matched; pick the heaviest.
    auto mate = maxWeightMatching(
        3, {{0, 1, 6}, {1, 2, 7}, {0, 2, 5}}, false);
    EXPECT_EQ(mate[1], 2);
    EXPECT_EQ(mate[0], -1);
}

TEST(Blossom, ClassicNestedBlossomCase)
{
    // From van Rantwijk's test suite (create/expand nested blossoms).
    std::vector<MatchEdge> edges{
        {1, 2, 19}, {1, 3, 20}, {1, 8, 8}, {2, 3, 25}, {2, 4, 18},
        {3, 5, 18}, {4, 5, 13}, {4, 7, 7},  {5, 6, 7}};
    auto mate = maxWeightMatching(9, edges, false);
    // Known optimum: (1,8), (2,3), (4,7), (5,6).
    EXPECT_EQ(mate[1], 8);
    EXPECT_EQ(mate[2], 3);
    EXPECT_EQ(mate[4], 7);
    EXPECT_EQ(mate[5], 6);
}

TEST(Blossom, SBlossomRelabelCase)
{
    // Another classic: augmenting through an expanded blossom.
    std::vector<MatchEdge> edges{
        {1, 2, 45}, {1, 5, 45}, {2, 3, 50}, {3, 4, 45}, {4, 5, 50},
        {1, 6, 30}, {3, 9, 35}, {4, 8, 35}, {5, 7, 26}, {9, 10, 5}};
    auto mate = maxWeightMatching(11, edges, false);
    EXPECT_EQ(mate[1], 6);
    EXPECT_EQ(mate[2], 3);
    EXPECT_EQ(mate[4], 8);
    EXPECT_EQ(mate[5], 7);
    EXPECT_EQ(mate[9], 10);
}

TEST(Blossom, NegativeBehaviorViaLowWeights)
{
    // Weight 0 edges are legal and only taken under max-cardinality.
    auto mate = maxWeightMatching(2, {{0, 1, 0}}, false);
    // Zero gain: matching or not are both optimal; accept either, but
    // the matching must be consistent.
    if (mate[0] != -1)
        EXPECT_EQ(mate[mate[0]], 0);

    auto forced = maxWeightMatching(2, {{0, 1, 0}}, true);
    EXPECT_EQ(forced[0], 1);
}

/** Random complete-graph instances, cross-checked with brute force. */
class BlossomRandomTest : public ::testing::TestWithParam<int>
{
};

TEST_P(BlossomRandomTest, PerfectMatchingMatchesExhaustive)
{
    const int n = GetParam();
    Rng rng(1000 + n);
    for (int trial = 0; trial < 60; trial++) {
        std::vector<std::vector<int64_t>> w(n, std::vector<int64_t>(n));
        for (int i = 0; i < n; i++) {
            for (int j = i + 1; j < n; j++) {
                w[i][j] = w[j][i] =
                    static_cast<int64_t>(rng.uniformInt(100));
            }
        }
        auto weight_fn = [&](int i, int j) { return w[i][j]; };
        auto mate = minWeightPerfectMatching(n, weight_fn);

        // Every vertex matched, consistently.
        for (int v = 0; v < n; v++) {
            ASSERT_GE(mate[v], 0);
            ASSERT_EQ(mate[mate[v]], v);
        }
        int64_t blossom_w = matchingWeight(mate, weight_fn);

        // Exhaustive optimum for comparison.
        PairList best;
        double exhaustive_w = exhaustiveMinWeightMatching(
            n,
            [&](int i, int j) { return static_cast<double>(w[i][j]); },
            best);
        EXPECT_EQ(blossom_w, static_cast<int64_t>(exhaustive_w))
            << "n=" << n << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(SmallEven, BlossomRandomTest,
                         ::testing::Values(2, 4, 6, 8, 10));

TEST(BlossomRandom, GeneralMatchingBeatsGreedyOnSparseGraphs)
{
    // Random sparse graphs: verify optimality against brute force over
    // all matchings (small n).
    Rng rng(77);
    for (int trial = 0; trial < 40; trial++) {
        const int n = 7;
        std::vector<MatchEdge> edges;
        for (int i = 0; i < n; i++) {
            for (int j = i + 1; j < n; j++) {
                if (rng.bernoulli(0.5)) {
                    edges.push_back(
                        {i, j,
                         static_cast<int64_t>(rng.uniformInt(50)) + 1});
                }
            }
        }
        auto mate = maxWeightMatching(n, edges, false);
        int64_t got = 0;
        for (int v = 0; v < n; v++) {
            if (mate[v] > v) {
                for (const auto &e : edges) {
                    if ((e.u == v && e.v == mate[v]) ||
                        (e.v == v && e.u == mate[v])) {
                        got += e.weight;
                        break;
                    }
                }
            }
        }

        // Brute force over all subsets of edges that form matchings.
        int64_t best = 0;
        const size_t m = edges.size();
        ASSERT_LT(m, 22u);
        for (size_t mask = 0; mask < (1u << m); mask++) {
            int used = 0;
            int64_t total = 0;
            bool ok = true;
            for (size_t k = 0; k < m && ok; k++) {
                if (!(mask & (1u << k)))
                    continue;
                if (used & (1 << edges[k].u) ||
                    used & (1 << edges[k].v)) {
                    ok = false;
                } else {
                    used |= (1 << edges[k].u) | (1 << edges[k].v);
                    total += edges[k].weight;
                }
            }
            if (ok)
                best = std::max(best, total);
        }
        EXPECT_EQ(got, best) << "trial " << trial;
    }
}

/**
 * Check one boundary matching over weights w (pairs) and wb (the
 * boundary): every defect appears once, pairs are (i, j) with i < j
 * or (i, -1) in ascending first index, totalWeight adds up, and no
 * direct pair is dearer than sending both defects to the boundary.
 * Returns the number of boundary pairs.
 */
int
checkBoundaryMatching(const MatchingSolution &sol, int n,
                      const std::vector<std::vector<int64_t>> &w,
                      const std::vector<int64_t> &wb)
{
    std::vector<int> seen(static_cast<size_t>(n), 0);
    int64_t total = 0;
    int boundary_pairs = 0, last = -1;
    for (auto [i, j] : sol.pairs) {
        EXPECT_GT(i, last);
        last = i;
        seen[static_cast<size_t>(i)]++;
        if (j < 0) {
            total += wb[i];
            boundary_pairs++;
            continue;
        }
        EXPECT_LT(i, j);
        seen[static_cast<size_t>(j)]++;
        total += w[i][j];
        EXPECT_LE(w[i][j], wb[i] + wb[j]) << "pair " << i << "-" << j;
    }
    for (int v = 0; v < n; v++)
        EXPECT_EQ(seen[static_cast<size_t>(v)], 1) << "defect " << v;
    EXPECT_EQ(static_cast<double>(total), sol.totalWeight);
    return boundary_pairs;
}

TEST(BlossomBoundary, DuplicationMatchesDpWithBoundary)
{
    // blossomMatchWithBoundary (the n defects plus one virtual node
    // for odd n, on effective pair weights) and the 2n-node
    // duplication graph (n defects plus n private boundary copies)
    // must both reach the DP optimum, which allows arbitrary boundary
    // matches. Every n from 0 to 16, in small integers like the
    // quantized GWT's and in micro-decade fixed point; cheap
    // boundaries in half the trials send several defects there.
    Rng rng(99);
    int several_to_boundary = 0, split_pairs = 0;
    for (int trial = 0; trial < 4 * 17; trial++) {
        const int n = trial % 17;
        const bool fixed_point = (trial / 17) % 2 == 1;
        const bool cheap_boundary = trial / 34 == 1;
        const uint64_t range = fixed_point ? 30000000 : 60;
        const uint64_t brange = cheap_boundary ? range / 4 : range;
        std::vector<std::vector<int64_t>> w(
            static_cast<size_t>(n), std::vector<int64_t>(n));
        std::vector<int64_t> wb(static_cast<size_t>(n));
        for (int i = 0; i < n; i++) {
            wb[i] = static_cast<int64_t>(rng.uniformInt(brange)) + 1;
            for (int j = i + 1; j < n; j++)
                w[i][j] = w[j][i] =
                    static_cast<int64_t>(rng.uniformInt(range)) + 1;
        }

        MatchingSolution sol = blossomMatchWithBoundary(
            n, [&](int i, int j) { return w[i][j]; },
            [&](int i) { return wb[i]; });
        const int boundary_pairs = checkBoundaryMatching(sol, n, w, wb);
        several_to_boundary += boundary_pairs >= 2 ? 1 : 0;
        // Without the virtual node (even n), a boundary pair is half
        // of a pair that was cheaper through the boundary.
        split_pairs += n % 2 == 0 ? boundary_pairs / 2 : 0;

        MatchingSolution dp = dpMatchWithBoundary(
            n,
            [&](int i, int j) { return static_cast<double>(w[i][j]); },
            [&](int i) { return static_cast<double>(wb[i]); });
        EXPECT_EQ(sol.totalWeight, dp.totalWeight)
            << "trial " << trial << " n=" << n;

        constexpr int64_t kBig = 1ll << 40;
        auto dup_weight = [&](int i, int j) -> int64_t {
            bool ir = i < n, jr = j < n;
            if (ir && jr)
                return w[i][j];
            if (!ir && !jr)
                return 0;
            int real = ir ? i : j;
            int copy = (ir ? j : i) - n;
            return (copy == real) ? wb[real] : kBig;
        };
        auto mate = minWeightPerfectMatching(2 * n, dup_weight);
        int64_t dup_total = 0;
        for (int v = 0; v < n; v++) {
            if (mate[v] < n) {
                if (v < mate[v])
                    dup_total += w[v][mate[v]];
            } else {
                ASSERT_EQ(mate[v] - n, v);
                dup_total += wb[v];
            }
        }
        EXPECT_EQ(static_cast<double>(dup_total), dp.totalWeight)
            << "trial " << trial << " n=" << n;
    }
    EXPECT_GT(several_to_boundary, 5);
    EXPECT_GT(split_pairs, 5);
}

TEST(BlossomBoundary, DirectPairWinsEqualBoundaryCost)
{
    // Every pair costs exactly its two boundary weights, so each
    // matching is optimal. The direct pairs win the ties; an odd n
    // leaves one defect on the virtual boundary node.
    Rng rng(7);
    for (int n = 1; n <= 9; n++) {
        std::vector<int64_t> wb(static_cast<size_t>(n));
        int64_t all_boundary = 0;
        for (int i = 0; i < n; i++) {
            wb[i] = static_cast<int64_t>(rng.uniformInt(200)) + 1;
            all_boundary += wb[i];
        }
        std::vector<std::vector<int64_t>> w(
            static_cast<size_t>(n), std::vector<int64_t>(n));
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
                w[i][j] = wb[i] + wb[j];
        MatchingSolution sol = blossomMatchWithBoundary(
            n, [&](int i, int j) { return w[i][j]; },
            [&](int i) { return wb[i]; });
        EXPECT_EQ(checkBoundaryMatching(sol, n, w, wb), n % 2)
            << "n=" << n;
        EXPECT_EQ(sol.totalWeight, static_cast<double>(all_boundary));
    }
}

TEST(BlossomBoundary, FixedPointSaturatesAtNoPath)
{
    EXPECT_EQ(decadesToFixedPoint(2.5), 2500000);
    EXPECT_EQ(decadesToFixedPoint(1.0000004), 1000000);
    EXPECT_EQ(decadesToFixedPoint(
                  std::numeric_limits<double>::infinity()),
              kFixedPointNoPath);
    EXPECT_EQ(decadesToFixedPoint(1e9), kFixedPointNoPath);
}

TEST(Blossom, RejectsOddPerfectMatching)
{
    EXPECT_DEATH(minWeightPerfectMatching(
                     3, [](int, int) { return int64_t{1}; }),
                 "even");
}

TEST(Blossom, RejectsBadEdges)
{
    EXPECT_DEATH(maxWeightMatching(2, {{0, 0, 1}}, false), "bad");
    EXPECT_DEATH(maxWeightMatching(2, {{0, 5, 1}}, false), "bad");
}

TEST(Blossom, LargeRandomInstanceStressTest)
{
    // d = 9, p = 1e-3 worst cases reach ~60 nodes with boundary
    // duplication; make sure a complete graph that size solves and
    // verifies (verifyOptimum runs internally).
    const int n = 60;
    Rng rng(123);
    std::vector<std::vector<int64_t>> w(n, std::vector<int64_t>(n));
    for (int i = 0; i < n; i++) {
        for (int j = i + 1; j < n; j++) {
            w[i][j] = w[j][i] =
                static_cast<int64_t>(rng.uniformInt(1000000));
        }
    }
    auto mate = minWeightPerfectMatching(
        n, [&](int i, int j) { return w[i][j]; });
    for (int v = 0; v < n; v++) {
        ASSERT_GE(mate[v], 0);
        ASSERT_EQ(mate[mate[v]], v);
    }
}

} // namespace
} // namespace astrea
