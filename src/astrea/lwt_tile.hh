/**
 * @file
 * Local Weight Table tile: the per-decode dense weight gather.
 *
 * The Global Weight Table is l x l over all detector positions; a
 * decode only ever touches the defects of one syndrome. The LWT tile
 * gathers that submatrix once per decode — quantized effective pair
 * weights and the matching observable masks — into a dense m x m tile
 * (m = defect count, plus one virtual boundary node for odd Hamming
 * weights), so candidate evaluation never touches the l x l table
 * again. The boundary column (each defect's weight/parity of matching
 * straight to the boundary) is read exactly once per defect and reused
 * for every effective-weight min — the old per-call
 * GlobalWeightTable::effectiveWeight() recomputed it for every pair
 * probe in the matcher inner loops.
 *
 * Weights are stored as int32 in the 16-bit tile domain consumed by
 * the SIMD kernels (simd_kernel.hh): finite quantized values pass
 * through unchanged (an 8-bit ceiling entry of 255 stays the finite
 * value 255, exactly as the scalar addWeights() hot path treated it),
 * and diagonal entries are kInfiniteTileWeight, which also satisfies
 * the kernels' "tile[0] is infinite" padding contract.
 *
 * Two consumers share one gather core (detail::gatherTile):
 *
 *  - LwtTile: one tile, the per-shot decode path.
 *  - LwtTileBlock: a structure-of-arrays bucket of up to kMaxLanes
 *    same-HW tiles laid out contiguously, filled lane after lane with
 *    the next shot's GWT rows prefetched while the current lane
 *    gathers. The wide decode path (AstreaDecoder::decodeShotsWide)
 *    fills a block per HW bucket and runs the matching kernel
 *    back-to-back over its lanes.
 *
 * Both live in DecodeScratch extension slots; build()/beginBucket()
 * reuse capacity, so a steady-state decode loop (or a whole
 * decodeBatch) performs no allocation after warm-up.
 */

#ifndef ASTREA_ASTREA_LWT_TILE_HH
#define ASTREA_ASTREA_LWT_TILE_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "astrea/simd_kernel.hh"
#include "common/logging.hh"
#include "common/weight.hh"
#include "graph/weight_table.hh"

namespace astrea
{

namespace detail
{

/**
 * Gather one defect set's dense weight/observable tile. weights/obs
 * point at an m x m destination; boundary_weights/boundary_obs at
 * w-entry scratch (w = defects.size(), m = w rounded up to even,
 * virt = w when odd else -1). With effective_weights, a pair's weight
 * is min(direct chain, both-to-boundary) and its observable mask
 * follows the same choice (direct wins ties, as
 * GlobalWeightTable::effectiveObs does). prefetch_next, when
 * non-empty, is the NEXT shot's defect set: its GWT boundary row is
 * prefetched up front so the following gather starts warm.
 *
 * With UpperOnly, only canonical (i, j) entries with i < j are
 * written — no mirror stores and no full-tile init beyond the
 * diagonal (kept infinite for the kernels' tile[0] padding contract).
 * Every entry the matching kernels and the wide verdict loop read is
 * a canonical pair (slot offsets and pairAt() are i < j), and the
 * pair and boundary loops below cover all of them; the mirrors only
 * exist for LwtTile's symmetric weightAt()/obsAt() accessors, so the
 * SoA block path skips them.
 *
 * wstride spreads WEIGHT entries: tile entry e lands at
 * weights[e * wstride] (obs stays dense at obs[e]). LwtTile passes 1;
 * LwtTileBlock passes kMaxLanes for its entry-major layout, where
 * entry e of lane l lives at block_base[e * kMaxLanes + l] so the
 * lane-major kernel reads consecutive lanes with plain vector loads
 * (simd_kernel.hh matchTileLanesT).
 */
template <bool UpperOnly>
inline void
gatherTile(const GlobalWeightTable &gwt,
           std::span<const uint32_t> defects, bool effective_weights,
           int m, int virt, int32_t *weights, size_t wstride,
           uint64_t *obs, uint32_t *boundary_weights,
           uint64_t *boundary_obs,
           std::span<const uint32_t> prefetch_next)
{
    const int w = static_cast<int>(defects.size());
    if (UpperOnly) {
        for (int i = 0; i < m; i++)
            weights[static_cast<size_t>(i) * (m + 1) * wstride] =
                static_cast<int32_t>(kInfiniteTileWeight);
    } else {
        const size_t n = static_cast<size_t>(m) * m;
        std::fill(weights, weights + n,
                  static_cast<int32_t>(kInfiniteTileWeight));
        std::fill(obs, obs + n, 0);
    }

    // Warm the next lane's GWT entries — boundary AND pair — while
    // this lane's (already prefetched) rows are gathered below. The
    // pair set is exactly what the next gather reads, so nearly all
    // of its scattered table misses overlap with this lane's work.
    for (size_t i = 0; i < prefetch_next.size(); i++) {
        gwt.prefetch(prefetch_next[i], prefetch_next[i]);
        for (size_t j = i + 1; j < prefetch_next.size(); j++)
            gwt.prefetch(prefetch_next[i], prefetch_next[j]);
    }

    // Boundary column: one GWT probe per defect, reused below.
    for (int i = 0; i < w; i++) {
        const uint32_t d = defects[i];
        boundary_weights[i] = gwt.pairWeight(d, d);
        boundary_obs[i] = gwt.pairObs(d, d);
    }

    const auto set = [&](int i, int j, int32_t weight,
                         uint64_t mask) {
        const size_t ij = static_cast<size_t>(i) * m + j;
        weights[ij * wstride] = weight;
        obs[ij] = mask;
        if (!UpperOnly) {
            const size_t ji = static_cast<size_t>(j) * m + i;
            weights[ji * wstride] = weight;
            obs[ji] = mask;
        }
    };

    for (int i = 0; i < w; i++) {
        for (int j = i + 1; j < w; j++) {
            const uint32_t a = defects[i], b = defects[j];
            uint32_t weight = gwt.pairWeight(a, b);
            uint64_t mask = gwt.pairObs(a, b);
            if (effective_weights) {
                const uint32_t via =
                    boundary_weights[i] + boundary_weights[j];
                if (via < weight) {
                    weight = via;
                    mask = boundary_obs[i] ^ boundary_obs[j];
                }
            }
            set(i, j, static_cast<int32_t>(weight), mask);
        }
        if (virt >= 0) {
            set(i, virt, static_cast<int32_t>(boundary_weights[i]),
                boundary_obs[i]);
        }
    }
}

} // namespace detail

/** Dense per-decode weight/observable tile over one defect set. */
class LwtTile
{
  public:
    /** Pre-size internal buffers for up to max_nodes nodes. */
    void
    reserve(int max_nodes)
    {
        const size_t n =
            static_cast<size_t>(max_nodes) * max_nodes;
        weights_.reserve(n);
        obs_.reserve(n);
        boundaryWeights_.reserve(static_cast<size_t>(max_nodes));
        boundaryObs_.reserve(static_cast<size_t>(max_nodes));
    }

    /**
     * Gather the tile for one defect set (see detail::gatherTile for
     * the weight semantics). Odd defect counts add one virtual
     * boundary node as the highest index.
     */
    void
    build(const GlobalWeightTable &gwt,
          std::span<const uint32_t> defects, bool effective_weights)
    {
        const int w = static_cast<int>(defects.size());
        m_ = (w % 2 == 0) ? w : w + 1;
        virt_ = (w % 2 == 0) ? -1 : w;

        weights_.resize(static_cast<size_t>(m_) * m_);
        obs_.resize(static_cast<size_t>(m_) * m_);
        boundaryWeights_.resize(static_cast<size_t>(w));
        boundaryObs_.resize(static_cast<size_t>(w));
        detail::gatherTile<false>(gwt, defects, effective_weights,
                                  m_, virt_, weights_.data(), 1,
                                  obs_.data(),
                                  boundaryWeights_.data(),
                                  boundaryObs_.data(), {});
    }

    /** Node count (defects, plus the virtual node when odd). */
    int nodes() const { return m_; }

    /** Virtual boundary node index, or -1 for even defect counts. */
    int virtualNode() const { return virt_; }

    /** Tile-domain weight of pair (i, j). */
    int32_t
    weightAt(int i, int j) const
    {
        return weights_[idx(i, j)];
    }

    /** Observable mask of pair (i, j)'s chosen chain. */
    uint64_t
    obsAt(int i, int j) const
    {
        return obs_[idx(i, j)];
    }

    /** Raw tile for the kernels (m x m row-major int32). */
    const int32_t *weights() const { return weights_.data(); }

    /** Map a kernel tile-domain sum back to addWeights() semantics. */
    static WeightSum
    toWeightSum(uint32_t tile_sum)
    {
        return tile_sum >= kInfiniteTileWeight ? kInfiniteWeightSum
                                               : tile_sum;
    }

  private:
    size_t
    idx(int i, int j) const
    {
        return static_cast<size_t>(i) * m_ + j;
    }

    int m_ = 0;
    int virt_ = -1;
    std::vector<int32_t> weights_;
    std::vector<uint64_t> obs_;
    std::vector<uint32_t> boundaryWeights_;
    std::vector<uint64_t> boundaryObs_;
};

/**
 * Structure-of-arrays bucket of same-HW weight tiles.
 *
 * A bucket holds up to kMaxLanes shots that share one Hamming weight,
 * hence one tile geometry (nodes, virtual column). Weights are stored
 * entry-major — tile entry e of lane l lives at
 * weights_[e * kMaxLanes + l] — so the lane-major kernel
 * (matchTileLanesT) reads 8 / 16 consecutive lanes of one entry with
 * a single vector load, no gathers, and the scalar tier walks the
 * same layout lane by lane.
 *
 * Observable masks are lane-contiguous — the verdict loop reads only
 * the winning row's few pairs per lane.
 */
class LwtTileBlock
{
  public:
    /** Lanes per bucket: two AVX-512 iterations of shots. */
    static constexpr int kMaxLanes = 32;
    /** Largest tile geometry (HW <= 10 always gathers <= 10 nodes). */
    static constexpr int kMaxNodes = 12;

    /** Pre-size for kMaxLanes tiles of up to max_nodes nodes. */
    void
    reserve(int max_nodes)
    {
        const size_t n = static_cast<size_t>(kMaxLanes) * max_nodes *
                         max_nodes;
        weights_.reserve(n);
        obs_.reserve(n);
    }

    /**
     * Start a bucket of `hw`-defect shots: fixes the tile geometry
     * and resets the lane count. Lane storage is resized (up only —
     * capacity persists) to kMaxLanes tiles.
     */
    void
    beginBucket(int hw)
    {
        ASTREA_CHECK(hw > 0 && hw <= kMaxNodes,
                     "tile bucket HW out of range");
        m_ = (hw % 2 == 0) ? hw : hw + 1;
        virt_ = (hw % 2 == 0) ? -1 : hw;
        tileEntries_ = static_cast<size_t>(m_) * m_;
        lanes_ = 0;
        weights_.resize(static_cast<size_t>(kMaxLanes) * tileEntries_);
        obs_.resize(static_cast<size_t>(kMaxLanes) * tileEntries_);
    }

    /**
     * Gather one shot into the next lane; returns the lane index.
     * `next` is the following shot's defect set (empty at the bucket
     * tail) — its GWT rows are prefetched while this lane gathers.
     * defects.size() must match the bucket's HW.
     */
    int
    gatherLane(const GlobalWeightTable &gwt,
               std::span<const uint32_t> defects,
               std::span<const uint32_t> next, bool effective_weights)
    {
        ASTREA_CHECK(lanes_ < kMaxLanes, "tile bucket overflow");
        const int lane = lanes_++;
        detail::gatherTile<true>(gwt, defects, effective_weights, m_,
                                 virt_, weights_.data() + lane,
                                 kEntryStride,
                                 obs_.data() + lane * tileEntries_,
                                 boundaryWeights_, boundaryObs_,
                                 next);
        return lane;
    }

    /** Lanes gathered since beginBucket(). */
    int lanes() const { return lanes_; }

    /** Node count of every tile in the bucket. */
    int nodes() const { return m_; }

    /** Virtual boundary node index, or -1 for even HW buckets. */
    int virtualNode() const { return virt_; }

    /** Base of the SoA tile storage (lane 0's first entry). */
    const int32_t *weightsData() const { return weights_.data(); }

    /** int32 entries between consecutive tile entries. */
    static constexpr size_t kEntryStride = kMaxLanes;

    /** Observable mask of pair (i, j) in lane `lane`'s tile. */
    uint64_t
    laneObs(int lane, int i, int j) const
    {
        return obs_[lane * tileEntries_ +
                    static_cast<size_t>(i) * m_ + j];
    }

  private:
    int m_ = 0;
    int virt_ = -1;
    int lanes_ = 0;
    size_t tileEntries_ = 0;  ///< m x m.
    std::vector<int32_t> weights_;
    std::vector<uint64_t> obs_;
    uint32_t boundaryWeights_[kMaxNodes] = {};
    uint64_t boundaryObs_[kMaxNodes] = {};
};

} // namespace astrea

#endif // ASTREA_ASTREA_LWT_TILE_HH
