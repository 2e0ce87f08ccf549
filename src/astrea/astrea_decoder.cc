#include "astrea/astrea_decoder.hh"

#include <algorithm>
#include <cmath>
#include <span>

#include "astrea/lwt_tile.hh"
#include "astrea/matching_tables.hh"
#include "common/logging.hh"
#include "telemetry/decode_trace.hh"
#include "telemetry/perf_counters.hh"
#include "telemetry/telemetry.hh"

namespace astrea
{

namespace detail
{

/** Per-scratch reusable buffers shared by both decode paths. */
struct AstreaScratch : DecodeScratch::Ext
{
    /** Quantized path: the per-decode dense weight/obs gather. */
    LwtTile tile;

    /** Exact path: the m x m fixed-point weight tile; only the i < j
     *  entries are written, and only those are read. */
    WeightSum exactTile[MatchingTable::kMaxNodes *
                        MatchingTable::kMaxNodes];

    /** Wide path: the SoA bucket of same-HW tiles. */
    LwtTileBlock block;
    /** Wide path: shot indices counting-sorted by Hamming weight. */
    std::vector<uint32_t> wideOrder;
    /** Wide path: decodeBatch's identity shot list. */
    std::vector<uint32_t> allShots;
    /** Wide path: per-lane kernel results for the current group. */
    KernelMatch laneMatch[LwtTileBlock::kMaxLanes];
    /** Wide path: per-lane gather/matching timestamps, recorded only
     *  while the decode tracer is active and replayed as spans at
     *  verdict time (DecodeTracer::recordStage). */
    uint64_t gatherT0[LwtTileBlock::kMaxLanes];
    uint64_t gatherT1[LwtTileBlock::kMaxLanes];
    uint64_t matchT0[LwtTileBlock::kMaxLanes];
    uint64_t matchT1[LwtTileBlock::kMaxLanes];
};

} // namespace detail

using detail::AstreaScratch;

AstreaDecoder::AstreaDecoder(const GlobalWeightTable &gwt,
                             AstreaConfig config)
    : gwt_(gwt), config_(config)
{
}

void
AstreaDecoder::describeConfig(telemetry::JsonWriter &w) const
{
    w.kv("max_hamming_weight", uint64_t{config_.maxHammingWeight});
    w.kv("quantized_weights", config_.quantizedWeights);
    w.kv("use_effective_weights", config_.useEffectiveWeights);
}

uint64_t
AstreaDecoder::decodeCycles(uint32_t hamming_weight)
{
    if (hamming_weight <= 2)
        return 0;
    if (hamming_weight <= 6)
        return 1;   // One HW6-unit evaluation.
    if (hamming_weight <= 8)
        return 11;  // 7 pre-match cycles plus pipeline fill/drain.
    return 103;     // 9 x 7 pre-match pairs plus pipeline overhead.
}

uint64_t
AstreaDecoder::totalCycles(uint32_t hamming_weight)
{
    if (hamming_weight <= 2)
        return 0;  // Trivial syndromes bypass the engine entirely.
    return (hamming_weight + 1) + decodeCycles(hamming_weight);
}

namespace
{

/** Modeled hardware HW6-unit invocations for an m-node search: one
 *  for m <= 6, 7 pre-matchings for m = 8, 9 x 7 for m = 10. */
uint64_t
modeledHw6Invocations(int m)
{
    if (m <= 6)
        return 1;
    return m == 8 ? 7 : 63;
}

/**
 * Report table row `row` as the decode's matching: XOR each pair's
 * observable mask (obs(i, j)) into out.obsMask and list the pairs,
 * with the virtual boundary node mapped to -1.
 */
template <class ObsFn>
void
emitMatching(const MatchingTable &table, uint32_t row, int virt,
             const ObsFn &obs, DecodeResult &out)
{
    out.matchedPairs.reserve(static_cast<size_t>(table.pairsPerRow()));
    for (int k = 0; k < table.pairsPerRow(); k++) {
        auto [i, j] = table.pairAt(row, k);
        out.obsMask ^= obs(i, j);
        int32_t a = (i == virt) ? -1 : static_cast<int32_t>(i);
        int32_t b = (j == virt) ? -1 : static_cast<int32_t>(j);
        if (a < 0)
            std::swap(a, b);
        out.matchedPairs.push_back({a, b});
    }
}

} // namespace

void
AstreaDecoder::decodeKernel(std::span<const uint32_t> defects,
                            DecodeResult &out, AstreaScratch &s)
{
    // Hardware-counter attribution, sampled one decode in
    // ASTREA_PERF_STAGE_STRIDE (a live section costs two group
    // reads, which would swamp a ~456 ns decode if taken every shot).
    const bool psample = telemetry::perfSampleThisDecode();
    {
        telemetry::PerfSection sec(telemetry::PerfStage::Gather, 1,
                                   psample);
        s.tile.build(gwt_, defects, config_.useEffectiveWeights);
    }

    const MatchingTable *table = nullptr;
    KernelMatch km;
    {
        telemetry::PerfSection sec(telemetry::PerfStage::Matching, 1,
                                   psample);
        table = &MatchingTable::forNodes(s.tile.nodes());
        km = matchTile16(*table, s.tile.weights(), kernel_);
    }
    ASTREA_CHECK(km.weight < kInfiniteTileWeight,
                 "Astrea found no finite matching");

    telemetry::PerfSection vsec(telemetry::PerfStage::Verdict, 1,
                                psample);
    emitMatching(*table, km.row, s.tile.virtualNode(),
                 [&](int i, int j) { return s.tile.obsAt(i, j); }, out);
    out.matchingWeight = static_cast<double>(km.weight) / kWeightScale;
}

void
AstreaDecoder::decodeExact(std::span<const uint32_t> defects,
                           DecodeResult &out, AstreaScratch &s)
{
    const uint32_t w = static_cast<uint32_t>(defects.size());

    // Nodes 0..w-1 are defects; odd Hamming weights add one virtual
    // boundary node with index w.
    const int m = (w % 2 == 0) ? static_cast<int>(w)
                               : static_cast<int>(w) + 1;
    const int virt = static_cast<int>(w);
    const MatchingTable &table = MatchingTable::forNodes(m);

    // Exact-weight mode works in 2^-16-decade fixed point, which
    // exceeds the 16-bit tile domain of matchTile16: the tile holds
    // full WeightSums and the pass runs matchTile32 (addWeights
    // semantics) over the same MatchingTable.
    constexpr double kExactScale = 65536.0;

    auto raw_weight = [&](uint32_t a, uint32_t b) -> WeightSum {
        double decades = gwt_.exactWeight(a, b);
        if (!std::isfinite(decades))
            return kInfiniteWeightSum;
        return static_cast<WeightSum>(decades * kExactScale);
    };
    // Is the pair of defects a, b cheaper through the boundary than
    // through its direct chain (only with effective weights)?
    auto via_boundary = [&](uint32_t a, uint32_t b) {
        return config_.useEffectiveWeights &&
               addWeights(raw_weight(a, a), raw_weight(b, b)) <
                   raw_weight(a, b);
    };

    // Only i < j is filled; the virtual node (the last index, so
    // never i) pairs with defect i at its boundary weight.
    for (int i = 0; i < static_cast<int>(w); i++) {
        const uint32_t a = defects[i];
        for (int j = i + 1; j < m; j++) {
            WeightSum &e = s.exactTile[i * m + j];
            if (j == virt) {
                e = raw_weight(a, a);
                continue;
            }
            const uint32_t b = defects[j];
            e = via_boundary(a, b)
                    ? addWeights(raw_weight(a, a), raw_weight(b, b))
                    : raw_weight(a, b);
        }
    }
    const KernelMatch km = matchTile32(table, s.exactTile);
    ASTREA_CHECK(km.weight != kInfiniteWeightSum,
                 "Astrea found no finite matching");

    emitMatching(table, km.row, virt,
                 [&](int i, int j) -> uint64_t {
                     const uint32_t a = defects[i];
                     if (j == virt)
                         return gwt_.pairObs(a, a);
                     const uint32_t b = defects[j];
                     if (via_boundary(a, b))
                         return gwt_.pairObs(a, a) ^ gwt_.pairObs(b, b);
                     return gwt_.pairObs(a, b);
                 },
                 out);
    out.matchingWeight = static_cast<double>(km.weight) / kExactScale;
}

void
AstreaDecoder::decodeInto(std::span<const uint32_t> defects,
                          DecodeResult &out, DecodeScratch &scratch)
{
    out.reset();
    const uint32_t w = static_cast<uint32_t>(defects.size());
    stats_.decodes++;
    ASTREA_COUNTER_INC("astrea.decodes");
    ASTREA_HIST_ADD("astrea.decode_hw", w);
    if (w == 0) {
        stats_.trivialDecodes++;
        return;
    }
    if (w > config_.maxHammingWeight) {
        stats_.gaveUps++;
        ASTREA_COUNTER_INC("astrea.gave_ups");
        ASTREA_HIST_ADD("astrea.give_up_hw", w);
        out.gaveUp = true;
        return;
    }
    if (w <= 2)
        stats_.trivialDecodes++;

    AstreaScratch &s = scratch.ext<AstreaScratch>();
    if (config_.quantizedWeights)
        decodeKernel(defects, out, s);
    else
        decodeExact(defects, out, s);

    const uint64_t invocations =
        modeledHw6Invocations(static_cast<int>(w + w % 2));
    stats_.hw6Invocations += invocations;
    ASTREA_COUNTER_ADD("astrea.hw6_invocations", invocations);
    if (w > 2) {
        // HW <= 2 bypasses the engine, so no GWT transfer is modeled.
        stats_.weightTransferCycles += w + 1;
        ASTREA_COUNTER_ADD("astrea.weight_transfer_cycles", w + 1);
    }
    out.cycles = totalCycles(w);
    out.latencyNs = cyclesToNs(out.cycles);
}

void
AstreaDecoder::decodeBatch(const SyndromeBatch &batch,
                           std::vector<DecodeResult> &results,
                           DecodeScratch &scratch)
{
    // One reservation serves the whole batch: the tile/bucket builds
    // only ever reuse capacity afterwards, so the shot loops allocate
    // nothing beyond what the results vector itself needs.
    AstreaScratch &s = scratch.ext<AstreaScratch>();
    s.tile.reserve(static_cast<int>(config_.maxHammingWeight) + 1);
    if (!config_.quantizedWeights) {
        // The exact-weight ablation exceeds the lane-major kernels'
        // 16-bit tile domain; it decodes shot by shot (matchTile32).
        Decoder::decodeBatch(batch, results, scratch);
        return;
    }
    if (results.size() < batch.size())
        results.resize(batch.size());
    s.allShots.resize(batch.size());
    for (size_t i = 0; i < batch.size(); i++)
        s.allShots[i] = static_cast<uint32_t>(i);
    decodeShotsWide(batch, s.allShots, results, scratch);
}

void
AstreaDecoder::decodeShotsWide(const SyndromeBatch &batch,
                               std::span<const uint32_t> shot_indices,
                               std::vector<DecodeResult> &results,
                               DecodeScratch &scratch)
{
    ASTREA_CHECK(config_.quantizedWeights,
                 "wide decoding requires quantized weights");
    const uint32_t max_hw = config_.maxHammingWeight;
    // Give-ups share one bucket past the last decodable weight.
    const uint32_t give_up_key = max_hw + 1;
    ASTREA_CHECK(give_up_key < 16, "maxHammingWeight out of range");

    AstreaScratch &s = scratch.ext<AstreaScratch>();
    s.block.reserve(static_cast<int>(max_hw) + 1);
    telemetry::DecodeTracer &tracer = telemetry::decodeTracer();

    // Counting sort by Hamming weight: one pass to size the buckets,
    // one to place the shot indices. Same-HW shots land contiguously
    // in wideOrder, in batch order (the sort is stable), so each
    // bucket is a slice.
    uint32_t counts[16] = {};
    for (const uint32_t idx : shot_indices)
        counts[std::min<uint32_t>(
            static_cast<uint32_t>(batch.hw(idx)), give_up_key)]++;
    uint32_t starts[17];
    starts[0] = 0;
    for (int k = 0; k < 16; k++)
        starts[k + 1] = starts[k] + counts[k];
    s.wideOrder.resize(shot_indices.size());
    {
        uint32_t cursor[16];
        std::copy(starts, starts + 16, cursor);
        for (const uint32_t idx : shot_indices)
            s.wideOrder[cursor[std::min<uint32_t>(
                static_cast<uint32_t>(batch.hw(idx)),
                give_up_key)]++] = idx;
    }

    // HW 0: nothing to match (decodeInto's early return).
    for (uint32_t i = starts[0]; i < starts[1]; i++) {
        const uint32_t shot = s.wideOrder[i];
        telemetry::traceShotBegin(shot);
        results[shot].reset();
        stats_.trivialDecodes++;
    }
    stats_.decodes += counts[0];
    ASTREA_COUNTER_ADD("astrea.decodes", counts[0]);
    ASTREA_HIST_ADD_N("astrea.decode_hw", 0, counts[0]);

    // Decodable buckets, lowest weight first.
    for (uint32_t w = 1; w <= max_hw; w++)
        decodeBucket(batch, {s.wideOrder.data() + starts[w],
                             counts[w]},
                     w, results, s, tracer);

    // Give-ups (HW > maxHammingWeight).
    for (uint32_t i = starts[give_up_key];
         i < starts[give_up_key] + counts[give_up_key]; i++) {
        const uint32_t shot = s.wideOrder[i];
        const uint32_t w = static_cast<uint32_t>(batch.hw(shot));
        telemetry::traceShotBegin(shot);
        results[shot].reset();
        results[shot].gaveUp = true;
        stats_.gaveUps++;
        ASTREA_COUNTER_INC("astrea.gave_ups");
        ASTREA_HIST_ADD("astrea.decode_hw", w);
        ASTREA_HIST_ADD("astrea.give_up_hw", w);
    }
    stats_.decodes += counts[give_up_key];
    ASTREA_COUNTER_ADD("astrea.decodes", counts[give_up_key]);
}

void
AstreaDecoder::decodeBucket(const SyndromeBatch &batch,
                            std::span<const uint32_t> shots,
                            uint32_t w,
                            std::vector<DecodeResult> &results,
                            detail::AstreaScratch &s,
                            telemetry::DecodeTracer &tracer)
{
    if (shots.empty())
        return;
    const int m = (w % 2 == 0) ? static_cast<int>(w)
                               : static_cast<int>(w) + 1;
    const int virt = (w % 2 == 0) ? -1 : static_cast<int>(w);
    const MatchingTable &table = MatchingTable::forNodes(m);
    const uint64_t invocations = modeledHw6Invocations(m);
    const bool tracing = tracer.active();

    for (size_t g = 0; g < shots.size();
         g += LwtTileBlock::kMaxLanes) {
        const uint32_t lanes = static_cast<uint32_t>(
            std::min<size_t>(LwtTileBlock::kMaxLanes,
                             shots.size() - g));
        // Counter attribution is per bucket group (shots = lanes);
        // trace spans are emitted per lane at verdict time instead,
        // so each retained trace carries its own stage timings.
        const bool psample = telemetry::perfSampleThisDecode();
        {
            telemetry::PerfSection sec(telemetry::PerfStage::Gather,
                                       lanes, psample, false);
            s.block.beginBucket(static_cast<int>(w), kernel_);
            for (uint32_t l = 0; l < lanes; l++) {
                const std::span<const uint32_t> next =
                    (l + 1 < lanes) ? batch.at(shots[g + l + 1])
                                    : std::span<const uint32_t>{};
                uint64_t t0 = 0;
                if (tracing)
                    t0 = telemetry::traceClockNs();
                s.block.gatherLane(gwt_, batch.at(shots[g + l]),
                                   next,
                                   config_.useEffectiveWeights);
                if (tracing) {
                    s.gatherT0[l] = t0;
                    s.gatherT1[l] = telemetry::traceClockNs();
                }
            }
        }
        {
            telemetry::PerfSection sec(
                telemetry::PerfStage::Matching, lanes, psample,
                false);
            // One fused lane-major kernel call per group; traced
            // shots share the group's span since lanes are no longer
            // evaluated one at a time.
            uint64_t t0 = 0;
            if (tracing)
                t0 = telemetry::traceClockNs();
            if (s.block.transposed())
                matchTileLanesT(table, s.block.weightsData(), lanes,
                                LwtTileBlock::kEntryStride,
                                s.laneMatch, kernel_);
            else
                matchTileLanes(table, s.block.weightsData(), lanes,
                               s.block.laneStride(), s.laneMatch,
                               kernel_);
            if (tracing) {
                const uint64_t t1 = telemetry::traceClockNs();
                for (uint32_t l = 0; l < lanes; l++) {
                    s.matchT0[l] = t0;
                    s.matchT1[l] = t1;
                }
            }
        }
        {
            telemetry::PerfSection sec(telemetry::PerfStage::Verdict,
                                       lanes, psample, false);
            for (uint32_t l = 0; l < lanes; l++) {
                const uint32_t shot = shots[g + l];
                telemetry::traceShotBegin(shot);
                uint64_t tv0 = 0;
                if (tracing) {
                    tracer.recordStage(telemetry::PerfStage::Gather,
                                       s.gatherT0[l], s.gatherT1[l]);
                    tracer.recordStage(
                        telemetry::PerfStage::Matching, s.matchT0[l],
                        s.matchT1[l]);
                    tv0 = telemetry::traceClockNs();
                }
                const KernelMatch km = s.laneMatch[l];
                ASTREA_CHECK(km.weight < kInfiniteTileWeight,
                             "Astrea found no finite matching");
                DecodeResult &out = results[shot];
                out.reset();
                emitMatching(table, km.row, virt,
                             [&](int i, int j) {
                                 return s.block.laneObs(
                                     static_cast<int>(l), i, j);
                             },
                             out);
                out.matchingWeight =
                    static_cast<double>(km.weight) / kWeightScale;
                out.cycles = totalCycles(w);
                out.latencyNs = cyclesToNs(out.cycles);
                if (tracing)
                    tracer.recordStage(
                        telemetry::PerfStage::Verdict, tv0,
                        telemetry::traceClockNs());
            }
        }

        // Bulk per-group bookkeeping, identical in total to the
        // per-shot increments decodeInto() performs.
        stats_.decodes += lanes;
        ASTREA_COUNTER_ADD("astrea.decodes", lanes);
        ASTREA_HIST_ADD_N("astrea.decode_hw", w, lanes);
        if (w <= 2)
            stats_.trivialDecodes += lanes;
        stats_.hw6Invocations += lanes * invocations;
        ASTREA_COUNTER_ADD("astrea.hw6_invocations",
                           lanes * invocations);
        if (w > 2) {
            stats_.weightTransferCycles +=
                static_cast<uint64_t>(lanes) * (w + 1);
            ASTREA_COUNTER_ADD("astrea.weight_transfer_cycles",
                               static_cast<uint64_t>(lanes) *
                                   (w + 1));
        }
    }
}

} // namespace astrea
