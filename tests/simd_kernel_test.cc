/**
 * @file
 * Kernel parity suite: every kernel tier's candidate evaluation —
 * scalar, AVX2, and the AVX-512 tier (which runs the AVX2 per-tile
 * kernel and its own lane-major bucket kernel) — must agree
 * bit-for-bit with each other and with the legacy enumerator-driven
 * evaluation — minimum weight, winning row (hence winning pair set)
 * and reconstructed observable mask — over seeded random weight tiles
 * including infinite entries and values deep in the 16-bit saturation
 * range. Runs under the sanitizer CI jobs like every other test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "astrea/lwt_tile.hh"
#include "astrea/matching_tables.hh"
#include "astrea/simd_kernel.hh"
#include "common/env.hh"
#include "common/rng.hh"
#include "matching/enumerator.hh"

namespace astrea
{
namespace
{

/** Scoped setenv that restores the previous state on destruction. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *prev = std::getenv(name);
        if (prev != nullptr) {
            had_ = true;
            prev_ = prev;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_.c_str(), prev_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    bool had_ = false;
    std::string prev_;
};

/**
 * Legacy-style reference: walk the canonical enumerator and evaluate
 * each matching over the tile with saturating 16-bit-domain sums,
 * keeping the first minimum.
 */
KernelMatch
referenceMatch16(int m, const int32_t *tile)
{
    KernelMatch best;
    uint32_t row = 0;
    forEachPerfectMatchingT(m, [&](const PairList &pl) {
        uint32_t sum = 0;
        for (auto [i, j] : pl)
            sum += static_cast<uint32_t>(tile[i * m + j]);
        if (sum > kInfiniteTileWeight)
            sum = kInfiniteTileWeight;
        if (sum < best.weight) {
            best.weight = sum;
            best.row = row;
        }
        row++;
    });
    return best;
}

/** The winning pair set of a table row, for set-level comparison. */
std::vector<std::pair<int, int>>
rowPairs(const MatchingTable &table, uint32_t row)
{
    std::vector<std::pair<int, int>> pairs;
    for (int k = 0; k < table.pairsPerRow(); k++)
        pairs.push_back(table.pairAt(row, k));
    return pairs;
}

/** XOR of per-pair observable masks along a table row. */
uint64_t
rowObs(const MatchingTable &table, uint32_t row,
       const std::vector<uint64_t> &obs, int m)
{
    uint64_t mask = 0;
    for (int k = 0; k < table.pairsPerRow(); k++) {
        auto [i, j] = table.pairAt(row, k);
        mask ^= obs[static_cast<size_t>(i) * m + j];
    }
    return mask;
}

/**
 * Fill a tile with seeded random weights: mostly realistic quantized
 * effective weights (0..510), a slice of large values near the 16-bit
 * ceiling to exercise saturation, and a slice of infinite entries.
 */
void
randomTile(Rng &rng, int m, std::vector<int32_t> &tile,
           std::vector<uint64_t> &obs)
{
    tile.assign(static_cast<size_t>(m) * m,
                static_cast<int32_t>(kInfiniteTileWeight));
    obs.assign(static_cast<size_t>(m) * m, 0);
    for (int i = 0; i < m; i++) {
        for (int j = i + 1; j < m; j++) {
            const double cls = rng.uniform();
            int32_t w;
            if (cls < 0.70)
                w = static_cast<int32_t>(rng.uniformInt(511));
            else if (cls < 0.85)
                w = static_cast<int32_t>(rng.uniformInt(0xFFFF));
            else
                w = static_cast<int32_t>(kInfiniteTileWeight);
            const uint64_t o = rng();
            tile[static_cast<size_t>(i) * m + j] = w;
            tile[static_cast<size_t>(j) * m + i] = w;
            obs[static_cast<size_t>(i) * m + j] = o;
            obs[static_cast<size_t>(j) * m + i] = o;
        }
    }
}

class KernelParityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(KernelParityTest, KernelsMatchLegacyEnumerator)
{
    const int m = GetParam();
    const MatchingTable &table = MatchingTable::forNodes(m);
    Rng rng(0xa57ea000u + static_cast<uint64_t>(m));

    std::vector<int32_t> tile;
    std::vector<uint64_t> obs;
    const bool have_avx2 = cpuHasAvx2();
    const bool have_avx512 = cpuHasAvx512();
    for (int trial = 0; trial < 1000; trial++) {
        randomTile(rng, m, tile, obs);

        const KernelMatch ref = referenceMatch16(m, tile.data());
        const KernelMatch scalar =
            matchTile16(table, tile.data(), KernelKind::kScalar);

        ASSERT_EQ(scalar.weight, ref.weight) << "trial " << trial;
        if (ref.weight < kInfiniteTileWeight) {
            ASSERT_EQ(scalar.row, ref.row) << "trial " << trial;
            EXPECT_EQ(rowPairs(table, scalar.row),
                      rowPairs(table, ref.row));
            EXPECT_EQ(rowObs(table, scalar.row, obs, m),
                      rowObs(table, ref.row, obs, m));
        }

        if (have_avx2) {
            const KernelMatch simd =
                matchTile16(table, tile.data(), KernelKind::kAvx2);
            ASSERT_EQ(simd.weight, ref.weight) << "trial " << trial;
            if (ref.weight < kInfiniteTileWeight) {
                ASSERT_EQ(simd.row, ref.row) << "trial " << trial;
                EXPECT_EQ(rowObs(table, simd.row, obs, m),
                          rowObs(table, ref.row, obs, m));
            }
        }

        if (have_avx512) {
            const KernelMatch wide =
                matchTile16(table, tile.data(), KernelKind::kAvx512);
            ASSERT_EQ(wide.weight, ref.weight) << "trial " << trial;
            if (ref.weight < kInfiniteTileWeight) {
                ASSERT_EQ(wide.row, ref.row) << "trial " << trial;
                EXPECT_EQ(rowObs(table, wide.row, obs, m),
                          rowObs(table, ref.row, obs, m));
            }
        }
    }
}

TEST_P(KernelParityTest, AllInfiniteTileReportsInfinity)
{
    const int m = GetParam();
    const MatchingTable &table = MatchingTable::forNodes(m);
    std::vector<int32_t> tile(
        static_cast<size_t>(m) * m,
        static_cast<int32_t>(kInfiniteTileWeight));

    EXPECT_EQ(matchTile16(table, tile.data(), KernelKind::kScalar)
                  .weight,
              kInfiniteTileWeight);
    if (cpuHasAvx2()) {
        EXPECT_EQ(matchTile16(table, tile.data(), KernelKind::kAvx2)
                      .weight,
                  kInfiniteTileWeight);
    }
    if (cpuHasAvx512()) {
        EXPECT_EQ(matchTile16(table, tile.data(), KernelKind::kAvx512)
                      .weight,
                  kInfiniteTileWeight);
    }
}

TEST_P(KernelParityTest, EqualWeightsBreakTiesToFirstRow)
{
    const int m = GetParam();
    const MatchingTable &table = MatchingTable::forNodes(m);
    std::vector<int32_t> tile(static_cast<size_t>(m) * m, 3);
    tile[0] = static_cast<int32_t>(kInfiniteTileWeight);
    for (int i = 0; i < m; i++)
        tile[static_cast<size_t>(i) * m + i] =
            static_cast<int32_t>(kInfiniteTileWeight);

    const KernelMatch scalar =
        matchTile16(table, tile.data(), KernelKind::kScalar);
    EXPECT_EQ(scalar.row, 0u);
    EXPECT_EQ(scalar.weight, 3u * (m / 2));
    if (cpuHasAvx2()) {
        const KernelMatch simd =
            matchTile16(table, tile.data(), KernelKind::kAvx2);
        EXPECT_EQ(simd.row, 0u);
        EXPECT_EQ(simd.weight, 3u * (m / 2));
    }
    if (cpuHasAvx512()) {
        const KernelMatch wide =
            matchTile16(table, tile.data(), KernelKind::kAvx512);
        EXPECT_EQ(wide.row, 0u);
        EXPECT_EQ(wide.weight, 3u * (m / 2));
    }
}

/**
 * Both lane-major bucket entry points must be bit-identical — weight
 * AND winning row — to per-lane matchTile16, across every supported
 * tier: matchTileLanes over lane-contiguous tiles and matchTileLanesT
 * over the transposed (entry-major) layout the SoA block uses for
 * small buckets. The odd lane count exercises the partial tail group;
 * the transposed buffer is padded to a full vector group of lanes
 * (stale storage there must never leak into live results).
 */
TEST_P(KernelParityTest, LaneMajorKernelsMatchPerLane)
{
    const int m = GetParam();
    const MatchingTable &table = MatchingTable::forNodes(m);
    const size_t stride = static_cast<size_t>(m) * m;
    Rng rng(0x1a9e0000u + static_cast<uint64_t>(m));

    const uint32_t lanes = 19;
    const size_t entry_stride = 32;  // Padded past 19 like the block.
    std::vector<int32_t> tiles(lanes * stride);
    std::vector<int32_t> tiles_t(stride * entry_stride, -7);
    std::vector<int32_t> one;
    std::vector<uint64_t> obs;
    for (uint32_t l = 0; l < lanes; l++) {
        randomTile(rng, m, one, obs);
        std::copy(one.begin(), one.end(),
                  tiles.begin() + static_cast<size_t>(l) * stride);
        for (size_t e = 0; e < stride; e++)
            tiles_t[e * entry_stride + l] = one[e];
    }

    std::vector<KernelMatch> expect(lanes);
    for (uint32_t l = 0; l < lanes; l++)
        expect[l] = matchTile16(table, tiles.data() + l * stride,
                                KernelKind::kScalar);

    std::vector<KernelKind> kinds = {KernelKind::kScalar};
    if (cpuHasAvx2())
        kinds.push_back(KernelKind::kAvx2);
    if (cpuHasAvx512())
        kinds.push_back(KernelKind::kAvx512);
    for (KernelKind kind : kinds) {
        std::vector<KernelMatch> got(lanes);
        matchTileLanes(table, tiles.data(), lanes, stride,
                       got.data(), kind);
        std::vector<KernelMatch> got_t(lanes);
        matchTileLanesT(table, tiles_t.data(), lanes, entry_stride,
                        got_t.data(), kind);
        for (uint32_t l = 0; l < lanes; l++) {
            ASSERT_EQ(got[l].weight, expect[l].weight)
                << kernelKindName(kind) << " lane " << l;
            ASSERT_EQ(got_t[l].weight, expect[l].weight)
                << kernelKindName(kind) << " lane " << l
                << " (transposed)";
            if (expect[l].weight < kInfiniteTileWeight) {
                ASSERT_EQ(got[l].row, expect[l].row)
                    << kernelKindName(kind) << " lane " << l;
                ASSERT_EQ(got_t[l].row, expect[l].row)
                    << kernelKindName(kind) << " lane " << l
                    << " (transposed)";
            }
        }
    }
}

TEST_P(KernelParityTest, LaneMajorKernelBreaksTiesToFirstRow)
{
    const int m = GetParam();
    const MatchingTable &table = MatchingTable::forNodes(m);
    const size_t stride = static_cast<size_t>(m) * m;

    // Every candidate row sums identically in every lane: the first
    // row must win in each lane, exactly like the scalar loop.
    const uint32_t lanes = 16;
    const size_t entry_stride = 16;
    std::vector<int32_t> tiles_t(stride * entry_stride, 3);
    for (uint32_t l = 0; l < lanes; l++)
        for (int i = 0; i < m; i++)
            tiles_t[(static_cast<size_t>(i) * m + i) * entry_stride +
                    l] = static_cast<int32_t>(kInfiniteTileWeight);

    std::vector<KernelKind> kinds = {KernelKind::kScalar};
    if (cpuHasAvx2())
        kinds.push_back(KernelKind::kAvx2);
    if (cpuHasAvx512())
        kinds.push_back(KernelKind::kAvx512);
    for (KernelKind kind : kinds) {
        std::vector<KernelMatch> got(lanes);
        matchTileLanesT(table, tiles_t.data(), lanes, entry_stride,
                        got.data(), kind);
        for (uint32_t l = 0; l < lanes; l++) {
            EXPECT_EQ(got[l].row, 0u)
                << kernelKindName(kind) << " lane " << l;
            EXPECT_EQ(got[l].weight, 3u * (m / 2))
                << kernelKindName(kind) << " lane " << l;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelParityTest,
                         ::testing::Values(2, 4, 6, 8, 10));

TEST(KernelSaturation, SumsClampToTheInfiniteCeiling)
{
    // Two large finite weights whose sum exceeds 16 bits must behave
    // as "no edge": the kernel may not wrap around and report a small
    // winning weight.
    const int m = 4;
    const MatchingTable &table = MatchingTable::forNodes(m);
    std::vector<int32_t> tile(
        static_cast<size_t>(m) * m,
        static_cast<int32_t>(kInfiniteTileWeight));
    // Matching {(0,1), (2,3)} saturates; {(0,2), (1,3)} stays finite.
    tile[0 * m + 1] = 0x9000;
    tile[2 * m + 3] = 0x9000;
    tile[0 * m + 2] = 0x7000;
    tile[1 * m + 3] = 0x7000;

    const KernelMatch ref = referenceMatch16(m, tile.data());
    const KernelMatch scalar =
        matchTile16(table, tile.data(), KernelKind::kScalar);
    EXPECT_EQ(scalar.weight, 0xE000u);
    EXPECT_EQ(scalar.weight, ref.weight);
    EXPECT_EQ(scalar.row, ref.row);
    EXPECT_EQ(rowPairs(table, scalar.row),
              (std::vector<std::pair<int, int>>{{0, 2}, {1, 3}}));
    if (cpuHasAvx2()) {
        const KernelMatch simd =
            matchTile16(table, tile.data(), KernelKind::kAvx2);
        EXPECT_EQ(simd.weight, ref.weight);
        EXPECT_EQ(simd.row, ref.row);
    }
    if (cpuHasAvx512()) {
        const KernelMatch wide =
            matchTile16(table, tile.data(), KernelKind::kAvx512);
        EXPECT_EQ(wide.weight, ref.weight);
        EXPECT_EQ(wide.row, ref.row);
    }
}

TEST(KernelMatchTile32, AgreesWithAddWeightsSemantics)
{
    // Full-width evaluation: kInfiniteWeightSum entries poison any
    // candidate touching them, and sums well beyond 16 bits survive.
    for (int m : {2, 4, 6, 8, 10}) {
        const MatchingTable &table = MatchingTable::forNodes(m);
        Rng rng(0xbeef0000u + static_cast<uint64_t>(m));
        std::vector<WeightSum> tile;
        for (int trial = 0; trial < 200; trial++) {
            tile.assign(static_cast<size_t>(m) * m,
                        kInfiniteWeightSum);
            for (int i = 0; i < m; i++)
                for (int j = i + 1; j < m; j++)
                    tile[static_cast<size_t>(i) * m + j] =
                        rng.uniform() < 0.15
                            ? kInfiniteWeightSum
                            : static_cast<WeightSum>(
                                  rng.uniformInt(1u << 20));

            KernelMatch ref;
            ref.weight = kInfiniteWeightSum;
            uint32_t row = 0;
            forEachPerfectMatchingT(m, [&](const PairList &pl) {
                WeightSum sum = 0;
                for (auto [i, j] : pl)
                    sum = addWeights(
                        sum, tile[static_cast<size_t>(i) * m + j]);
                if (sum < ref.weight) {
                    ref.weight = sum;
                    ref.row = row;
                }
                row++;
            });

            const KernelMatch got = matchTile32(table, tile.data());
            ASSERT_EQ(got.weight, ref.weight)
                << "m " << m << " trial " << trial;
            if (ref.weight != kInfiniteWeightSum)
                ASSERT_EQ(got.row, ref.row)
                    << "m " << m << " trial " << trial;
        }
    }
}

TEST(KernelMatchTile32, ReadsOnlyUpperTriangle)
{
    // The exact-weight decoder only initializes i < j tile entries, so
    // everything else — diagonal, lower triangle, tile[0] — must never
    // be read. Poison those entries with zeros (which would win any
    // min-reduction) and check the result against the enumerator over
    // the upper triangle.
    for (int m : {2, 4, 6, 8, 10}) {
        const MatchingTable &table = MatchingTable::forNodes(m);
        Rng rng(0xcafe0000u + static_cast<uint64_t>(m));
        std::vector<WeightSum> tile;
        for (int trial = 0; trial < 100; trial++) {
            tile.assign(static_cast<size_t>(m) * m, 0);
            for (int i = 0; i < m; i++)
                for (int j = i + 1; j < m; j++)
                    tile[static_cast<size_t>(i) * m + j] =
                        1 + static_cast<WeightSum>(
                                rng.uniformInt(1u << 20));

            KernelMatch ref;
            ref.weight = kInfiniteWeightSum;
            uint32_t row = 0;
            forEachPerfectMatchingT(m, [&](const PairList &pl) {
                WeightSum sum = 0;
                for (auto [i, j] : pl)
                    sum += tile[static_cast<size_t>(i) * m + j];
                if (sum < ref.weight) {
                    ref.weight = sum;
                    ref.row = row;
                }
                row++;
            });

            const KernelMatch got = matchTile32(table, tile.data());
            ASSERT_EQ(got.weight, ref.weight)
                << "m " << m << " trial " << trial;
            ASSERT_EQ(got.row, ref.row)
                << "m " << m << " trial " << trial;
        }
    }
}

TEST(KernelMatchTile32, PropagatesInfiniteWeightSum)
{
    const int m = 2;
    const MatchingTable &table = MatchingTable::forNodes(m);
    std::vector<WeightSum> tile(static_cast<size_t>(m) * m,
                                kInfiniteWeightSum);
    EXPECT_EQ(matchTile32(table, tile.data()).weight,
              kInfiniteWeightSum);
}

TEST(LwtTileDomain, ToWeightSumMapsTheCeilingToInfinity)
{
    EXPECT_EQ(LwtTile::toWeightSum(0), 0u);
    EXPECT_EQ(LwtTile::toWeightSum(510), 510u);
    EXPECT_EQ(LwtTile::toWeightSum(kInfiniteTileWeight),
              kInfiniteWeightSum);
}

/** The tier the cpuid-driven default should pick on this host. */
KernelKind
widestSupportedKind()
{
    if (cpuHasAvx512())
        return KernelKind::kAvx512;
    if (cpuHasAvx2())
        return KernelKind::kAvx2;
    return KernelKind::kScalar;
}

TEST(KernelDispatch, DefaultFollowsCpuid)
{
    {
        ScopedEnv clear("ASTREA_FORCE_KERNEL", nullptr);
        resetKernelDispatchForTest();
        EXPECT_EQ(activeKernelKind(), widestSupportedKind());
    }
    resetKernelDispatchForTest();
}

TEST(KernelDispatch, ForceKernelPinsEachSupportedTier)
{
    {
        ScopedEnv force("ASTREA_FORCE_KERNEL", "scalar");
        resetKernelDispatchForTest();
        EXPECT_EQ(activeKernelKind(), KernelKind::kScalar);
    }
    if (cpuHasAvx2()) {
        ScopedEnv force("ASTREA_FORCE_KERNEL", "avx2");
        resetKernelDispatchForTest();
        EXPECT_EQ(activeKernelKind(), KernelKind::kAvx2);
    }
    if (cpuHasAvx512()) {
        ScopedEnv force("ASTREA_FORCE_KERNEL", "avx512");
        resetKernelDispatchForTest();
        EXPECT_EQ(activeKernelKind(), KernelKind::kAvx512);
    }
    resetKernelDispatchForTest();
}

TEST(KernelDispatch, UnsupportedTierFallsBackToBestSupported)
{
    // Cap the reported cpuid at AVX2 so forcing AVX-512 is
    // unsupported regardless of the actual host.
    {
        ScopedEnv force("ASTREA_FORCE_KERNEL", "avx512");
        setCpuKernelCapForTest(KernelKind::kAvx2);
        resetKernelDispatchForTest();
        EXPECT_EQ(activeKernelKind(), cpuHasAvx2()
                                          ? KernelKind::kAvx2
                                          : KernelKind::kScalar);

        setCpuKernelCapForTest(KernelKind::kScalar);
        resetKernelDispatchForTest();
        EXPECT_EQ(activeKernelKind(), KernelKind::kScalar);
    }
    setCpuKernelCapForTest(KernelKind::kAvx512);
    resetKernelDispatchForTest();
}

TEST(KernelDispatch, UnknownTierNameFallsBackToAutomatic)
{
    {
        ScopedEnv force("ASTREA_FORCE_KERNEL", "sse9");
        resetKernelDispatchForTest();
        EXPECT_EQ(activeKernelKind(), widestSupportedKind());
    }
    resetKernelDispatchForTest();
}

TEST(KernelDispatch, KindNames)
{
    EXPECT_STREQ(kernelKindName(KernelKind::kScalar), "scalar");
    EXPECT_STREQ(kernelKindName(KernelKind::kAvx2), "avx2");
    EXPECT_STREQ(kernelKindName(KernelKind::kAvx512), "avx512");
}

} // namespace
} // namespace astrea
