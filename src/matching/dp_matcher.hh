/**
 * @file
 * Exact minimum-weight matching with a boundary, by bitmask DP.
 *
 * For n <= 20 defects this computes the true MWPM — including the
 * option of matching any subset of defects individually to the boundary
 * — in O(2^n * n) time. It is the accuracy auditor's engine for small
 * Hamming weights, where it beats blossom (audit/auditor.hh
 * kOracleDpMaxHw), and, sharing no code with blossom, the independent
 * reference that property tests hold blossomMatchWithBoundary() and
 * the Astrea enumerator to.
 */

#ifndef ASTREA_MATCHING_DP_MATCHER_HH
#define ASTREA_MATCHING_DP_MATCHER_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace astrea
{

/** A solved matching over defect indices 0..n-1. */
struct MatchingSolution
{
    double totalWeight = 0.0;
    /** (i, j) pairs; j == -1 means i is matched to the boundary. */
    std::vector<std::pair<int, int>> pairs;
};

/**
 * Exact minimum-weight matching with boundary.
 *
 * @param n Number of defects (n <= 20).
 * @param pair_weight pair_weight(i, j) for i < j.
 * @param boundary_weight boundary_weight(i).
 */
MatchingSolution dpMatchWithBoundary(
    int n, const std::function<double(int, int)> &pair_weight,
    const std::function<double(int)> &boundary_weight);

} // namespace astrea

#endif // ASTREA_MATCHING_DP_MATCHER_HH
