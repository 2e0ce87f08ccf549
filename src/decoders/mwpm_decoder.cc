#include "decoders/mwpm_decoder.hh"

#include <chrono>

#include "matching/blossom.hh"
#include "telemetry/telemetry.hh"

namespace astrea
{

void
MwpmDecoder::decodeInto(std::span<const uint32_t> defects,
                        DecodeResult &result, DecodeScratch &scratch)
{
    (void)scratch;  // Blossom's work arrays are not pooled.
    result.reset();
    const int n = static_cast<int>(defects.size());
    if (n == 0)
        return;

    auto t0 = std::chrono::steady_clock::now();

    // Micro-decade fixed point keeps the exact weights exact enough.
    const MatchingSolution sol = blossomMatchWithBoundary(
        n,
        [&](int i, int j) {
            return decadesToFixedPoint(
                gwt_.exactWeight(defects[i], defects[j]));
        },
        [&](int i) {
            return decadesToFixedPoint(
                gwt_.exactWeight(defects[i], defects[i]));
        });

    result.matchedPairs.reserve(sol.pairs.size());
    double total = 0.0;
    for (auto [i, j] : sol.pairs) {
        const uint32_t a = defects[i];
        const uint32_t b = j < 0 ? a : defects[j];
        result.obsMask ^= gwt_.pairObs(a, b);
        total += gwt_.exactWeight(a, b);
        result.matchedPairs.push_back({i, j});
    }
    result.matchingWeight = total;

    auto t1 = std::chrono::steady_clock::now();
    result.latencyNs =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    ASTREA_COUNTER_INC("mwpm.decodes");
    ASTREA_LATENCY_NS("mwpm.decode_ns", result.latencyNs);
}

} // namespace astrea
