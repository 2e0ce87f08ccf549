/**
 * @file
 * Exhaustive perfect-matching enumeration (Astrea's search, in software).
 *
 * A set of w nodes has (w-1)!! = w! / (2^(w/2) (w/2)!) perfect matchings
 * (paper Eq. 2): 3 for w = 4, 15 for w = 6, 105 for w = 8, 945 for
 * w = 10. The enumerator walks them in the same canonical order the
 * hardware does — always extending the lowest-index unmatched node — so
 * the flattened MatchingTable rows the matching kernels evaluate, and
 * the pre-matching schedules for Hamming weights 8 and 10, can be
 * derived from it directly. The visitor-driven walk is a template
 * (forEachPerfectMatchingT): no type erasure, so table generation and
 * tests pay only the inlined callback.
 */

#ifndef ASTREA_MATCHING_ENUMERATOR_HH
#define ASTREA_MATCHING_ENUMERATOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/logging.hh"

namespace astrea
{

/** A perfect matching as index pairs (i < j) over nodes 0..m-1. */
using PairList = std::vector<std::pair<int, int>>;

/** Number of perfect matchings of m nodes: (m-1)!! for even m. */
uint64_t perfectMatchingCount(int m);

namespace detail
{

template <class Visitor>
void
enumerateMatchings(uint32_t unmatched, PairList &current, Visitor &&visit)
{
    if (unmatched == 0) {
        visit(const_cast<const PairList &>(current));
        return;
    }
    int i = __builtin_ctz(unmatched);
    uint32_t rest = unmatched & (unmatched - 1);
    uint32_t others = rest;
    while (others) {
        int j = __builtin_ctz(others);
        others &= others - 1;
        current.push_back({i, j});
        enumerateMatchings(rest & ~(1u << j), current, visit);
        current.pop_back();
    }
}

} // namespace detail

/**
 * Visit every perfect matching of m nodes (m even) in canonical order,
 * calling visit(const PairList &). The reference may not be retained
 * past the invocation. Template-visitor variant: the callback is
 * inlined, with no std::function type-erasure or capture allocation.
 */
template <class Visitor>
void
forEachPerfectMatchingT(int m, Visitor &&visit)
{
    ASTREA_CHECK(m >= 0 && m % 2 == 0 && m <= 30,
                 "enumerator supports even m <= 30");
    if (m == 0) {
        PairList empty;
        visit(const_cast<const PairList &>(empty));
        return;
    }
    PairList current;
    current.reserve(m / 2);
    detail::enumerateMatchings((1u << m) - 1, current, visit);
}

/**
 * Exhaustive minimum-weight perfect matching.
 *
 * @param m Even node count.
 * @param pair_weight pair_weight(i, j), i < j.
 * @param best_out Out: the winning matching.
 * @return The minimum total weight.
 */
double exhaustiveMinWeightMatching(
    int m, const std::function<double(int, int)> &pair_weight,
    PairList &best_out);

} // namespace astrea

#endif // ASTREA_MATCHING_ENUMERATOR_HH
