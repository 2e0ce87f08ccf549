#include "astrea/simd_kernel.hh"

#include <atomic>
#include <string>

#include "common/env.hh"
#include "common/logging.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ASTREA_KERNEL_X86 1
#else
#define ASTREA_KERNEL_X86 0
#endif

namespace astrea
{

namespace
{

/** Test-only ceiling on what cpuHas*() may report (3 = no cap). */
std::atomic<int> g_cpu_cap{3};

} // namespace

bool
cpuHasAvx2()
{
#if ASTREA_KERNEL_X86
    if (g_cpu_cap.load(std::memory_order_relaxed) < 2)
        return false;
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

bool
cpuHasAvx512()
{
#if ASTREA_KERNEL_X86
    if (g_cpu_cap.load(std::memory_order_relaxed) < 3)
        return false;
    return __builtin_cpu_supports("avx512f") != 0;
#else
    return false;
#endif
}

void
setCpuKernelCapForTest(KernelKind max_kind)
{
    g_cpu_cap.store(static_cast<int>(max_kind) + 1,
                    std::memory_order_relaxed);
}

namespace
{

/** 0 = unresolved, 1 = scalar, 2 = avx2, 3 = avx512. */
std::atomic<int> g_active_kind{0};

int
bestSupportedKind()
{
    if (cpuHasAvx512())
        return 3;
    if (cpuHasAvx2())
        return 2;
    return 1;
}

int
resolveKind()
{
    const int best = bestSupportedKind();

    // ASTREA_FORCE_KERNEL pins a tier by name. An unsupported tier
    // warns and falls back to the best the CPU offers; an unknown name
    // warns and leaves the automatic choice in place.
    const std::string force =
        env::getString("ASTREA_FORCE_KERNEL", "");
    if (!force.empty()) {
        int want = 0;
        if (force == "scalar")
            want = 1;
        else if (force == "avx2")
            want = 2;
        else if (force == "avx512")
            want = 3;

        if (want == 0) {
            warn("ASTREA_FORCE_KERNEL=" + force +
                 ": unknown kernel tier (expected scalar, avx2 or "
                 "avx512); using automatic dispatch");
        } else if (want > best) {
            warn("ASTREA_FORCE_KERNEL=" + force +
                 ": tier unsupported on this CPU; falling back to " +
                 std::string(kernelKindName(
                     static_cast<KernelKind>(best - 1))));
            return best;
        } else {
            return want;
        }
    }

    return best;
}

} // namespace

KernelKind
activeKernelKind()
{
    int kind = g_active_kind.load(std::memory_order_relaxed);
    if (kind == 0) {
        kind = resolveKind();
        g_active_kind.store(kind, std::memory_order_relaxed);
    }
    return static_cast<KernelKind>(kind - 1);
}

const char *
kernelKindName(KernelKind kind)
{
    switch (kind) {
      case KernelKind::kAvx512:
        return "avx512";
      case KernelKind::kAvx2:
        return "avx2";
      default:
        return "scalar";
    }
}

void
resetKernelDispatchForTest()
{
    g_active_kind.store(0, std::memory_order_relaxed);
}

namespace
{

/**
 * Portable fallback, unrolled over the pair-slot count. Sums are
 * accumulated in 32 bits and clamped to the 16-bit ceiling, which is
 * arithmetically identical to per-step 16-bit saturating adds for
 * non-negative addends.
 */
template <int P>
KernelMatch
scalarEval16(const MatchingTable &table, const int32_t *tile)
{
    const uint32_t rows = table.rows();
    const int32_t *off[P];
    for (int p = 0; p < P; p++)
        off[p] = table.slotOffsets(p);

    KernelMatch best;
    for (uint32_t r = 0; r < rows; r++) {
        uint32_t sum = static_cast<uint32_t>(tile[off[0][r]]);
        for (int p = 1; p < P; p++)
            sum += static_cast<uint32_t>(tile[off[p][r]]);
        if (sum > kInfiniteTileWeight)
            sum = kInfiniteTileWeight;
        if (sum < best.weight) {
            best.weight = sum;
            best.row = r;
        }
    }
    return best;
}

KernelMatch
scalarEval16Dispatch(const MatchingTable &table, const int32_t *tile)
{
    switch (table.pairsPerRow()) {
      case 1:
        return scalarEval16<1>(table, tile);
      case 2:
        return scalarEval16<2>(table, tile);
      case 3:
        return scalarEval16<3>(table, tile);
      case 4:
        return scalarEval16<4>(table, tile);
      case 5:
        return scalarEval16<5>(table, tile);
      default:
        panic("matching table wider than 5 pair slots");
    }
}

#if ASTREA_KERNEL_X86

/**
 * AVX2 path: 16 candidate rows per iteration. Each pair slot is one
 * gather stream (two 8-lane 32-bit gathers) packed down to unsigned
 * 16-bit with saturation, accumulated with 16-bit saturating adds, and
 * reduced with a vectorized running min + first-argmin. The loop
 * walks the offset arrays' padded length (kRowPadding = 16); padded
 * rows resolve to tile[0], which the tile contract keeps infinite.
 * matchTile16 runs this kernel on the AVX-512 tier too: a 32-row
 * AVX-512 variant measured slower at m = 4-8 and only ~8% faster at
 * m = 10, too rare a size to show in per-shot decode throughput.
 */
__attribute__((target("avx2"))) KernelMatch
avx2Eval16(const MatchingTable &table, const int32_t *tile)
{
    const uint32_t rows16 = table.rowsPadded();
    const int pairs_per_row = table.pairsPerRow();

    const __m256i sign = _mm256_set1_epi16(
        static_cast<short>(0x8000));
    const __m256i step = _mm256_set1_epi16(16);
    __m256i vmin = _mm256_set1_epi16(-1);  // 0xFFFF in every lane.
    __m256i vmin_idx = _mm256_setzero_si256();
    __m256i vidx = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                     11, 12, 13, 14, 15);

    for (uint32_t r = 0; r < rows16; r += 16) {
        __m256i sums = _mm256_setzero_si256();
        for (int p = 0; p < pairs_per_row; p++) {
            const int32_t *off = table.slotOffsets(p) + r;
            __m256i idx_lo = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(off));
            __m256i idx_hi = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(off + 8));
            __m256i g_lo =
                _mm256_i32gather_epi32(tile, idx_lo, 4);
            __m256i g_hi =
                _mm256_i32gather_epi32(tile, idx_hi, 4);
            // packus saturates int32 -> uint16 and interleaves the two
            // 128-bit lanes; the permute restores row order.
            __m256i packed = _mm256_permute4x64_epi64(
                _mm256_packus_epi32(g_lo, g_hi), 0xD8);
            sums = (p == 0) ? packed
                            : _mm256_adds_epu16(sums, packed);
        }
        // Strict unsigned less-than via the sign-bias trick; strictness
        // keeps the FIRST row attaining each lane minimum, matching
        // the scalar kernel's tie-breaking.
        __m256i lt = _mm256_cmpgt_epi16(
            _mm256_xor_si256(vmin, sign),
            _mm256_xor_si256(sums, sign));
        vmin = _mm256_min_epu16(vmin, sums);
        vmin_idx = _mm256_blendv_epi8(vmin_idx, vidx, lt);
        vidx = _mm256_add_epi16(vidx, step);
    }

    // Horizontal reduction: lane l holds the first row ≡ l (mod 16)
    // attaining its lane minimum, so the global first minimum is the
    // smallest stored row among lanes at the global minimum value.
    alignas(32) uint16_t mins[16];
    alignas(32) uint16_t idxs[16];
    _mm256_store_si256(reinterpret_cast<__m256i *>(mins), vmin);
    _mm256_store_si256(reinterpret_cast<__m256i *>(idxs), vmin_idx);

    KernelMatch best;
    bool found = false;
    for (int l = 0; l < 16; l++) {
        const uint32_t v = mins[l];
        if (v >= kInfiniteTileWeight)
            continue;
        if (!found || v < best.weight ||
            (v == best.weight && idxs[l] < best.row)) {
            best.weight = v;
            best.row = idxs[l];
            found = true;
        }
    }
    return best;
}

/**
 * Lane-major AVX2 bucket kernel over a transposed (entry-major) SoA
 * block: entry e of 8 consecutive lanes is one unaligned vector load
 * at tiles_t + e * entry_stride + l0 — no gathers anywhere. Sums
 * accumulate in 32 bits and clamp to the 16-bit ceiling —
 * arithmetically identical to the row-major kernels' saturating adds
 * for non-negative addends — and the running min / argmin stays
 * vertical (one slot per lane), so there is no horizontal reduction
 * and no padded-row work at all. Candidates and the running best are
 * both <= 0xFFFF, so the signed strict-less compare is exact and,
 * over ascending rows, keeps the first minimum like the scalar loop.
 * Dead lanes past the bucket hold stale storage; their results are
 * computed (integer ops never trap) and never stored to out.
 */
__attribute__((target("avx2"))) void
avx2EvalLanesT(const MatchingTable &table, const int32_t *tiles_t,
               uint32_t lanes, size_t entry_stride, KernelMatch *out)
{
    const uint32_t rows = table.rows();
    const int pairs = table.pairsPerRow();
    const __m256i vinf =
        _mm256_set1_epi32(static_cast<int>(kInfiniteTileWeight));
    const int32_t *off[5] = {};
    for (int p = 0; p < pairs; p++)
        off[p] = table.slotOffsets(p);

    for (uint32_t l0 = 0; l0 < lanes; l0 += 8) {
        const int32_t *base = tiles_t + l0;
        __m256i vbest = vinf;
        __m256i vrow = _mm256_setzero_si256();
        for (uint32_t r = 0; r < rows; r++) {
            __m256i sum = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(
                    base + static_cast<size_t>(off[0][r]) *
                               entry_stride));
            for (int p = 1; p < pairs; p++)
                sum = _mm256_add_epi32(
                    sum, _mm256_loadu_si256(
                             reinterpret_cast<const __m256i *>(
                                 base +
                                 static_cast<size_t>(off[p][r]) *
                                     entry_stride)));
            const __m256i cand = _mm256_min_epu32(sum, vinf);
            const __m256i lt = _mm256_cmpgt_epi32(vbest, cand);
            vbest = _mm256_min_epu32(vbest, cand);
            vrow = _mm256_blendv_epi8(
                vrow, _mm256_set1_epi32(static_cast<int>(r)), lt);
        }

        alignas(32) int32_t bw[8];
        alignas(32) int32_t br[8];
        _mm256_store_si256(reinterpret_cast<__m256i *>(bw), vbest);
        _mm256_store_si256(reinterpret_cast<__m256i *>(br), vrow);
        const uint32_t n = lanes - l0 < 8 ? lanes - l0 : 8;
        for (uint32_t k = 0; k < n; k++) {
            out[l0 + k].weight = static_cast<uint32_t>(bw[k]);
            out[l0 + k].row = static_cast<uint32_t>(br[k]);
        }
    }
}

/**
 * Lane-major AVX-512 transposed bucket kernel: 16 lanes per load,
 * mirroring avx2EvalLanesT. Only avx512f is needed — the whole pass
 * stays in the 32-bit integer domain.
 */
__attribute__((target("avx512f"))) void
avx512EvalLanesT(const MatchingTable &table, const int32_t *tiles_t,
                 uint32_t lanes, size_t entry_stride,
                 KernelMatch *out)
{
    const uint32_t rows = table.rows();
    const int pairs = table.pairsPerRow();
    const __m512i vinf =
        _mm512_set1_epi32(static_cast<int>(kInfiniteTileWeight));
    const int32_t *off[5] = {};
    for (int p = 0; p < pairs; p++)
        off[p] = table.slotOffsets(p);

    for (uint32_t l0 = 0; l0 < lanes; l0 += 16) {
        const int32_t *base = tiles_t + l0;
        __m512i vbest = vinf;
        __m512i vrow = _mm512_setzero_si512();
        for (uint32_t r = 0; r < rows; r++) {
            __m512i sum = _mm512_loadu_si512(
                base + static_cast<size_t>(off[0][r]) * entry_stride);
            for (int p = 1; p < pairs; p++)
                sum = _mm512_add_epi32(
                    sum,
                    _mm512_loadu_si512(
                        base + static_cast<size_t>(off[p][r]) *
                                   entry_stride));
            const __m512i cand = _mm512_min_epu32(sum, vinf);
            const __mmask16 lt = _mm512_cmplt_epu32_mask(cand, vbest);
            vbest = _mm512_min_epu32(vbest, cand);
            vrow = _mm512_mask_blend_epi32(
                lt, vrow, _mm512_set1_epi32(static_cast<int>(r)));
        }

        alignas(64) int32_t bw[16];
        alignas(64) int32_t br[16];
        _mm512_store_si512(bw, vbest);
        _mm512_store_si512(br, vrow);
        const uint32_t n = lanes - l0 < 16 ? lanes - l0 : 16;
        for (uint32_t k = 0; k < n; k++) {
            out[l0 + k].weight = static_cast<uint32_t>(bw[k]);
            out[l0 + k].row = static_cast<uint32_t>(br[k]);
        }
    }
}

#endif // ASTREA_KERNEL_X86

/** Portable transposed evaluation: per-lane scalarEval16 semantics. */
template <int P>
void
scalarEvalLanesT(const MatchingTable &table, const int32_t *tiles_t,
                 uint32_t lanes, size_t entry_stride,
                 KernelMatch *out)
{
    const uint32_t rows = table.rows();
    const int32_t *off[P];
    for (int p = 0; p < P; p++)
        off[p] = table.slotOffsets(p);

    for (uint32_t l = 0; l < lanes; l++) {
        const int32_t *base = tiles_t + l;
        KernelMatch best;
        for (uint32_t r = 0; r < rows; r++) {
            uint32_t sum = static_cast<uint32_t>(
                base[static_cast<size_t>(off[0][r]) * entry_stride]);
            for (int p = 1; p < P; p++)
                sum += static_cast<uint32_t>(
                    base[static_cast<size_t>(off[p][r]) *
                         entry_stride]);
            if (sum > kInfiniteTileWeight)
                sum = kInfiniteTileWeight;
            if (sum < best.weight) {
                best.weight = sum;
                best.row = r;
            }
        }
        out[l] = best;
    }
}

void
scalarEvalLanesTDispatch(const MatchingTable &table,
                         const int32_t *tiles_t, uint32_t lanes,
                         size_t entry_stride, KernelMatch *out)
{
    switch (table.pairsPerRow()) {
      case 1:
        return scalarEvalLanesT<1>(table, tiles_t, lanes,
                                   entry_stride, out);
      case 2:
        return scalarEvalLanesT<2>(table, tiles_t, lanes,
                                   entry_stride, out);
      case 3:
        return scalarEvalLanesT<3>(table, tiles_t, lanes,
                                   entry_stride, out);
      case 4:
        return scalarEvalLanesT<4>(table, tiles_t, lanes,
                                   entry_stride, out);
      case 5:
        return scalarEvalLanesT<5>(table, tiles_t, lanes,
                                   entry_stride, out);
      default:
        panic("matching table wider than 5 pair slots");
    }
}

} // namespace

KernelMatch
matchTile16(const MatchingTable &table, const int32_t *tile,
            KernelKind kind)
{
#if ASTREA_KERNEL_X86
    if (kind != KernelKind::kScalar)
        return avx2Eval16(table, tile);
#else
    (void)kind;
#endif
    return scalarEval16Dispatch(table, tile);
}

void
matchTileLanes(const MatchingTable &table, const int32_t *tiles,
               uint32_t lanes, size_t lane_stride, KernelMatch *out,
               KernelKind kind)
{
    for (uint32_t l = 0; l < lanes; l++)
        out[l] = matchTile16(table, tiles + l * lane_stride, kind);
}

void
matchTileLanesT(const MatchingTable &table, const int32_t *tiles_t,
                uint32_t lanes, size_t entry_stride, KernelMatch *out,
                KernelKind kind)
{
#if ASTREA_KERNEL_X86
    if (kind == KernelKind::kAvx512) {
        avx512EvalLanesT(table, tiles_t, lanes, entry_stride, out);
        return;
    }
    if (kind == KernelKind::kAvx2) {
        avx2EvalLanesT(table, tiles_t, lanes, entry_stride, out);
        return;
    }
#else
    (void)kind;
#endif
    scalarEvalLanesTDispatch(table, tiles_t, lanes, entry_stride,
                             out);
}

namespace
{

template <int P>
KernelMatch
scalarEval32(const MatchingTable &table, const WeightSum *tile)
{
    const uint32_t rows = table.rows();
    const int32_t *off[P];
    for (int p = 0; p < P; p++)
        off[p] = table.slotOffsets(p);

    KernelMatch best;
    best.weight = kInfiniteWeightSum;
    for (uint32_t r = 0; r < rows; r++) {
        WeightSum sum = tile[off[0][r]];
        for (int p = 1; p < P; p++)
            sum = addWeights(sum, tile[off[p][r]]);
        if (sum < best.weight) {
            best.weight = sum;
            best.row = r;
        }
    }
    return best;
}

} // namespace

KernelMatch
matchTile32(const MatchingTable &table, const WeightSum *tile)
{
    switch (table.pairsPerRow()) {
      case 1:
        return scalarEval32<1>(table, tile);
      case 2:
        return scalarEval32<2>(table, tile);
      case 3:
        return scalarEval32<3>(table, tile);
      case 4:
        return scalarEval32<4>(table, tile);
      case 5:
        return scalarEval32<5>(table, tile);
      default:
        panic("matching table wider than 5 pair slots");
    }
}

} // namespace astrea
