#include "matching/enumerator.hh"

#include <limits>

#include "common/logging.hh"

namespace astrea
{

uint64_t
perfectMatchingCount(int m)
{
    ASTREA_CHECK(m >= 0 && m % 2 == 0, "odd node count");
    uint64_t n = 1;
    for (int k = m - 1; k > 1; k -= 2)
        n *= static_cast<uint64_t>(k);
    return n;
}

double
exhaustiveMinWeightMatching(
    int m, const std::function<double(int, int)> &pair_weight,
    PairList &best_out)
{
    double best = std::numeric_limits<double>::infinity();
    best_out.clear();
    forEachPerfectMatchingT(m, [&](const PairList &pl) {
        double w = 0.0;
        for (auto [i, j] : pl)
            w += pair_weight(i, j);
        if (w < best) {
            best = w;
            best_out = pl;
        }
    });
    return best;
}

} // namespace astrea
