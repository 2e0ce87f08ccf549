/**
 * @file
 * Data-parallel candidate-matching kernels.
 *
 * The hardware evaluates all matchings of a weight tile through a
 * hardwired adder/comparator network in one cycle (paper Fig. 7a). The
 * software hot path mirrors that: all candidate sums of a MatchingTable
 * are evaluated over a dense weight tile in one flat pass — no
 * recursion, no per-pair callbacks — followed by a min+argmin
 * reduction.
 *
 * Tile contract (matchTile16): the tile is an m x m row-major array of
 * int32 entries whose values live in the 16-bit weight domain
 * [0, kInfiniteTileWeight]; kInfiniteTileWeight (0xFFFF) means "no
 * edge", and entry (0, 0) — tile[0] — must be infinite because padded
 * table rows resolve there. Candidate sums accumulate with 16-bit
 * saturating semantics: any sum reaching 0xFFFF is infinite, exactly
 * matching addWeights() once mapped through LwtTile::toWeightSum()
 * (finite quantized sums can never reach the ceiling: 5 pairs x 510
 * max effective weight < 0xFFFF).
 *
 * Per tile there are two implementations: an AVX2 path (16 rows per
 * iteration; 32-bit gathers packed down with unsigned saturation,
 * 16-bit saturating adds, vectorized min+argmin with first-minimum
 * tie-breaking), which the AVX2 and AVX-512 tiers both run, and a
 * portable unrolled scalar fallback. The AVX-512 tier differs only in
 * its lane-major bucket kernel (matchTileLanesT, 16 lanes per load).
 * All produce bit-identical results — weight AND winning row — which
 * the kernel parity suite enforces. Selection is by cpuid at first
 * use; ASTREA_FORCE_KERNEL={scalar,avx2,avx512} pins any tier
 * (falling back with a warning when the CPU lacks it).
 */

#ifndef ASTREA_ASTREA_SIMD_KERNEL_HH
#define ASTREA_ASTREA_SIMD_KERNEL_HH

#include <cstddef>
#include <cstdint>

#include "astrea/matching_tables.hh"
#include "common/weight.hh"

namespace astrea
{

/** Candidate-evaluation kernel implementations, narrowest first. */
enum class KernelKind
{
    kScalar,
    kAvx2,
    kAvx512,
};

/** Tile-domain sentinel for "no edge" (16-bit saturation ceiling). */
constexpr uint32_t kInfiniteTileWeight = 0xFFFF;

/** Outcome of evaluating every candidate matching over one tile. */
struct KernelMatch
{
    /**
     * The minimum candidate sum. The domain follows the evaluation:
     * matchTile16 reports tile-domain sums (kInfiniteTileWeight when
     * every candidate crossed an infinite entry), matchTile32 reports
     * WeightSum sums (kInfiniteWeightSum likewise). row is meaningless
     * when the weight is the respective infinity.
     */
    uint32_t weight = kInfiniteTileWeight;
    /** First table row attaining the minimum (canonical order). */
    uint32_t row = 0;
};

/** True when the CPU supports the AVX2 kernel. */
bool cpuHasAvx2();

/** True when the CPU supports the AVX-512 kernel (AVX-512F). */
bool cpuHasAvx512();

/**
 * The kernel the decoders run: the widest tier the CPU supports,
 * unless ASTREA_FORCE_KERNEL={scalar,avx2,avx512} pins one (an
 * unsupported or unknown value warns once and falls back to the best
 * supported tier). Resolved once per process
 * (resetKernelDispatchForTest() re-reads the environment).
 */
KernelKind activeKernelKind();

/** Display name: "avx512", "avx2" or "scalar". */
const char *kernelKindName(KernelKind kind);

/** Testing hook: re-resolve activeKernelKind() on next call. */
void resetKernelDispatchForTest();

/**
 * Testing hook: pretend the CPU supports no tier wider than max_kind,
 * so the unsupported-tier fallback is testable on any host.
 * cpuHasAvx2()/cpuHasAvx512() honor the cap; pass KernelKind::kAvx512
 * to restore the true cpuid answer. Callers should also
 * resetKernelDispatchForTest() to re-resolve.
 */
void setCpuKernelCapForTest(KernelKind max_kind);

/**
 * Evaluate all candidate matchings over a 16-bit-domain tile (see the
 * tile contract above) with the requested kernel. kAvx2 and kAvx512
 * both run the AVX2 kernel.
 */
KernelMatch matchTile16(const MatchingTable &table, const int32_t *tile,
                        KernelKind kind);

/**
 * Lane-major bucket evaluation over a TRANSPOSED (entry-major) SoA
 * block: tiles_t[e * entry_stride + lane] holds tile entry e of the
 * given lane, so 8 / 16 consecutive lanes of one entry are one plain
 * vector load — no gathers at all. The AVX2 / AVX-512 variants
 * evaluate all lanes of a group per pass with a vertical running
 * min / argmin: exactly rows x pairsPerRow loads per vector group, no
 * padded-row work, no horizontal reduction. Bit-identical to per-lane
 * matchTile16 (32-bit sums clamped to the 16-bit ceiling, strict-less
 * first-minimum tie-break over ascending rows). entry_stride must be
 * a multiple of 16 with storage for that many lanes (dead lanes are
 * computed and discarded, never stored to out). Every tier evaluates
 * every exhaustive table this way; the scalar loop walks the lanes
 * one at a time.
 */
void matchTileLanesT(const MatchingTable &table,
                     const int32_t *tiles_t, uint32_t lanes,
                     size_t entry_stride, KernelMatch *out,
                     KernelKind kind);

/**
 * Evaluation over a full-width WeightSum tile with addWeights()
 * semantics (kInfiniteWeightSum propagates), for weights that exceed
 * the 16-bit tile domain (the exact-weight ablation). A portable loop
 * over the real rows only, so just the entries i*m + j with i < j are
 * read; the rest of the tile may hold anything.
 */
KernelMatch matchTile32(const MatchingTable &table,
                        const WeightSum *tile);

} // namespace astrea

#endif // ASTREA_ASTREA_SIMD_KERNEL_HH
