/**
 * @file
 * Astrea: real-time brute-force MWPM for Hamming weights up to 10
 * (paper Sec. 5).
 *
 * The decoder reads quantized pair weights from the Global Weight Table
 * and exhaustively evaluates every perfect matching of the defects:
 *
 *  - HW 0-2: trivial (no search; 0 cycles);
 *  - HW 3-6: one HW6-unit evaluation (1 cycle);
 *  - HW 7-8: pre-match one pair 7 ways, HW6 on the rest (11 cycles);
 *  - HW 9-10: pre-match two pairs, 9 x 7 = 63 ways (103 cycles);
 *  - HW > 10: not decoded (gaveUp; the paper shows such syndromes are
 *    rarer than the logical error rate at d <= 7, p = 1e-4).
 *
 * Boundary matches are folded into pair weights: a pair may resolve
 * either through the direct chain or through the boundary, whichever
 * GWT weight is lower, and odd Hamming weights add one virtual boundary
 * node. This keeps the search over perfect matchings exactly equivalent
 * to true MWPM (see DESIGN.md). Weight transfer from the GWT costs
 * HW + 1 cycles; total worst case is 114 cycles = 456 ns at 250 MHz.
 *
 * The pre-match schedule above is the cycle model. The software
 * evaluates the whole precomputed MatchingTable of all (m-1)!!
 * candidates in one flat kernel pass (simd_kernel.hh) — no recursion,
 * no per-pair callbacks — in both weight domains: the default
 * quantized mode gathers an LwtTile and runs matchTile16, and the
 * exact-weight ablation fills a 2^-16-decade fixed-point WeightSum
 * tile and runs matchTile32. Cycle modeling is identical on both
 * paths.
 */

#ifndef ASTREA_ASTREA_ASTREA_DECODER_HH
#define ASTREA_ASTREA_ASTREA_DECODER_HH

#include "astrea/simd_kernel.hh"
#include "decoders/decoder.hh"
#include "graph/weight_table.hh"

namespace astrea
{

namespace detail
{
struct AstreaScratch;
}

namespace telemetry
{
class DecodeTracer;
}

/** Configuration for the Astrea decoder. */
struct AstreaConfig
{
    /** Largest Hamming weight the brute-force search accepts. */
    uint32_t maxHammingWeight = 10;

    /**
     * Ablation: read the 8-bit quantized GWT (the hardware's view,
     * default) or the unquantized decade weights (what the paper's
     * software model of Astrea effectively used).
     */
    bool quantizedWeights = true;

    /**
     * Ablation: allow pairs to resolve through the boundary
     * (min(w_ij, w_iB + w_jB), default). Disabling restricts pairs to
     * their direct chains — odd Hamming weights still get one virtual
     * boundary node — which breaks exactness for syndromes whose MWPM
     * sends several defects to the boundary.
     */
    bool useEffectiveWeights = true;
};

/** Running per-instance counters for reporting. */
struct AstreaStats
{
    uint64_t decodes = 0;
    /** Syndromes with HW <= 2 (no search needed). */
    uint64_t trivialDecodes = 0;
    /** Modeled hardware HW6-unit invocations (1 for HW <= 6, 7 for
     *  HW 7-8, 63 for HW 9-10), on both weight domains. */
    uint64_t hw6Invocations = 0;
    /** Modeled GWT weight-transfer cycles (HW + 1 per decode). */
    uint64_t weightTransferCycles = 0;
    uint64_t gaveUps = 0;
};

/** The Astrea brute-force real-time decoder. */
class AstreaDecoder : public Decoder
{
  public:
    explicit AstreaDecoder(const GlobalWeightTable &gwt,
                           AstreaConfig config = {});

    void decodeInto(std::span<const uint32_t> defects, DecodeResult &out,
                    DecodeScratch &scratch) override;

    /**
     * Batch decode through the shot-major wide path (quantized mode):
     * shots are bucketed by Hamming weight and each bucket's tiles are
     * gathered into a structure-of-arrays LwtTileBlock and matched
     * back-to-back, bit-identical to per-shot decodeInto(). The
     * exact-weight ablation (quantizedWeights == false) exceeds the
     * lane-major kernels' tile domain and keeps the per-shot loop.
     */
    void decodeBatch(const SyndromeBatch &batch,
                     std::vector<DecodeResult> &results,
                     DecodeScratch &scratch) override;

    /**
     * Decode the listed batch shots (indices into `batch`, writing
     * results[i] for each listed i) through the HW-bucketed wide path.
     * Requires quantized weights and results.size() >= batch.size().
     * Astrea-G routes its exhaustive-range shots here so a mixed batch
     * still fills buckets; AstreaDecoder::decodeBatch passes every
     * shot. Give-up (HW > maxHammingWeight) and empty shots are
     * handled inline, exactly as decodeInto() would.
     */
    void decodeShotsWide(const SyndromeBatch &batch,
                         std::span<const uint32_t> shot_indices,
                         std::vector<DecodeResult> &results,
                         DecodeScratch &scratch);

    std::string name() const override { return "Astrea"; }
    void describeConfig(telemetry::JsonWriter &w) const override;

    /** Syndromes skipped because HW exceeded the limit. */
    uint64_t gaveUpCount() const { return stats_.gaveUps; }

    const AstreaStats &stats() const { return stats_; }

    /** The candidate-evaluation kernel the quantized path runs. */
    KernelKind kernelKind() const { return kernel_; }

    /** Modeled decode cycles (excluding weight transfer) for a HW. */
    static uint64_t decodeCycles(uint32_t hamming_weight);

    /** Total modeled cycles including the HW+1 transfer cycles. */
    static uint64_t totalCycles(uint32_t hamming_weight);

  private:
    /** Quantized hot path: LWT tile gather + flat kernel pass. */
    void decodeKernel(std::span<const uint32_t> defects,
                      DecodeResult &out, detail::AstreaScratch &s);

    /** Exact-weight ablation: fixed-point WeightSum tile + one
     *  matchTile32 pass over the same MatchingTable. */
    void decodeExact(std::span<const uint32_t> defects,
                     DecodeResult &out, detail::AstreaScratch &s);

    /** Wide path: one HW bucket, gathered and matched in groups of
     *  LwtTileBlock::kMaxLanes lanes. */
    void decodeBucket(const SyndromeBatch &batch,
                      std::span<const uint32_t> shots, uint32_t w,
                      std::vector<DecodeResult> &results,
                      detail::AstreaScratch &s,
                      telemetry::DecodeTracer &tracer);

    const GlobalWeightTable &gwt_;
    AstreaConfig config_;
    AstreaStats stats_;
    KernelKind kernel_ = activeKernelKind();
};

} // namespace astrea

#endif // ASTREA_ASTREA_ASTREA_DECODER_HH
