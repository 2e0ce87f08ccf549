/**
 * @file
 * Exact maximum/minimum weight matching in general graphs.
 *
 * This is the library's stand-in for BlossomV (paper Sec. 3.3): an
 * O(V^3) implementation of Edmonds' blossom algorithm with dual
 * variables, following Galil's formulation in the structure popularized
 * by van Rantwijk's reference implementation (the same algorithm behind
 * NetworkX's max_weight_matching). Weights are integral internally so
 * the dual updates are exact; callers quantize real weights before
 * invoking it (the wrappers below do this for decade weights).
 *
 * Three entry points are provided:
 *  - maxWeightMatching(): general maximum-weight matching, optionally
 *    constrained to maximum cardinality;
 *  - minWeightPerfectMatching(): minimum-weight perfect matching on a
 *    complete even-order graph, via the usual weight reflection;
 *  - blossomMatchWithBoundary(): the decoder's formulation, defects
 *    that may each end on the boundary, on the n defects plus one
 *    virtual boundary node with the boundary folded into the pair
 *    weights (DESIGN.md section 4, "Boundary trick").
 */

#ifndef ASTREA_MATCHING_BLOSSOM_HH
#define ASTREA_MATCHING_BLOSSOM_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "matching/dp_matcher.hh"

namespace astrea
{

/** One weighted edge for the matcher. */
struct MatchEdge
{
    int u;
    int v;
    int64_t weight;
};

/**
 * Maximum-weight matching.
 *
 * @param num_vertices Number of vertices (0 .. n-1).
 * @param edges Edge list; parallel edges and self-loops are rejected.
 * @param max_cardinality If true, only maximum-cardinality matchings
 *        are considered (needed to force perfect matchings).
 * @return mate[v] = matched partner of v, or -1 if v is single.
 */
std::vector<int> maxWeightMatching(int num_vertices,
                                   const std::vector<MatchEdge> &edges,
                                   bool max_cardinality);

/**
 * Minimum-weight perfect matching on a complete graph of even order.
 *
 * @param num_vertices Even vertex count.
 * @param weight weight(i, j) for i < j, as a non-negative integer.
 * @return mate[] as above; every vertex is matched.
 */
std::vector<int> minWeightPerfectMatching(
    int num_vertices, const std::function<int64_t(int, int)> &weight);

/**
 * Exact minimum-weight matching with boundary, by blossom; the same
 * shape and optimum as dpMatchWithBoundary(), at any n.
 *
 * Runs minWeightPerfectMatching() on the n defects, plus one virtual
 * boundary node at pair weight boundary_weight(i) when n is odd, with
 * each defect pair at min(pair_weight(i, j), boundary_weight(i) +
 * boundary_weight(j)) — the construction Astrea's LWT tile uses. A
 * pair that is cheaper through the boundary comes back as (i, -1) and
 * (j, -1); on equal cost the direct pair wins, as
 * GlobalWeightTable::effectiveObs() decides. Pairs are listed by
 * ascending first index: (i, j) with i < j, or (i, -1) for the
 * boundary. totalWeight is the integer optimum.
 *
 * @param n Number of defects.
 * @param pair_weight pair_weight(i, j) for i < j, non-negative.
 * @param boundary_weight boundary_weight(i), non-negative.
 */
MatchingSolution blossomMatchWithBoundary(
    int n, const std::function<int64_t(int, int)> &pair_weight,
    const std::function<int64_t(int)> &boundary_weight);

/** Blossom weight of "no path"; fixed-point weights saturate here. */
constexpr int64_t kFixedPointNoPath = int64_t{1} << 40;

/**
 * An exact decade weight in blossom's integer domain: micro-decades
 * (llround(1e6 * decades)), saturating at kFixedPointNoPath, which
 * also stands for an infinite weight.
 */
int64_t decadesToFixedPoint(double decades);

/*
 * Every maxWeightMatching() call verifies complementary slackness of
 * the final duals internally and panics on violation, so an optimality
 * bug cannot silently corrupt logical-error-rate measurements.
 */

} // namespace astrea

#endif // ASTREA_MATCHING_BLOSSOM_HH
