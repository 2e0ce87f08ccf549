/**
 * @file
 * Tests for the syndrome codecs (paper Sec. 7.6): lossless round-trip
 * on random and sampled syndromes, fallback behavior on dense inputs,
 * the compression gains on real sparse syndromes, and the defect-list
 * encoder and decoder held byte for byte to a bit-at-a-time reference
 * of the wire format (including truncation and bit-flip fuzz).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "compression/syndrome_codec.hh"
#include "harness/memory_experiment.hh"

namespace astrea
{
namespace
{

BitVec
fromIndices(uint32_t n, const std::vector<uint32_t> &ones)
{
    BitVec v(n);
    for (auto i : ones)
        v.set(i);
    return v;
}

/**
 * The wire format written one bit at a time, straight from its
 * definition: the oracle the list encoder must match byte for byte.
 */
std::vector<uint8_t>
referenceEncode(const BitVec &v, SyndromeCodec codec)
{
    const size_t n = v.size();
    const size_t raw_size = 1 + (n + 7) / 8;
    std::vector<uint8_t> out;
    if (codec == SyndromeCodec::Sparse) {
        const bool wide = n > 256;
        out = {1, 0};
        for (size_t i = 0; i < n; i++) {
            if (!v.get(i))
                continue;
            out[1]++;
            out.push_back(static_cast<uint8_t>(i & 0xff));
            if (wide)
                out.push_back(static_cast<uint8_t>(i >> 8));
        }
    } else if (codec == SyndromeCodec::RunLength) {
        out = {2};
        uint32_t run = 0;
        for (size_t i = 0; i < n; i++) {
            if (!v.get(i)) {
                run++;
                continue;
            }
            for (; run >= 255; run -= 255)
                out.push_back(255);
            out.push_back(static_cast<uint8_t>(run));
            run = 0;
        }
    }
    if (codec == SyndromeCodec::Raw || out.size() >= raw_size) {
        out.assign(raw_size, 0);
        for (size_t i = 0; i < n; i++) {
            if (v.get(i))
                out[1 + i / 8] |= static_cast<uint8_t>(1u << (i % 8));
        }
    }
    return out;
}

/**
 * The untrusted-input decoder written one bit at a time: the oracle
 * for what the list decoder accepts and what set it returns.
 */
bool
referenceDecode(const uint8_t *bytes, size_t len, uint32_t n,
                BitVec &out)
{
    out = BitVec(n);
    if (len == 0)
        return false;
    if (bytes[0] == 0) {
        if (len != 1 + (static_cast<size_t>(n) + 7) / 8)
            return false;
        for (uint32_t i = 0; i < n; i++) {
            if ((bytes[1 + i / 8] >> (i % 8)) & 1)
                out.set(i);
        }
        return n % 8 == 0 || (bytes[len - 1] >> (n % 8)) == 0;
    }
    if (bytes[0] == 1) {
        if (len < 2)
            return false;
        const bool wide = n > 256;
        size_t pos = 2;
        for (uint32_t k = 0; k < bytes[1]; k++) {
            if (pos + (wide ? 1 : 0) >= len)
                return false;
            uint32_t idx = bytes[pos++];
            if (wide)
                idx |= static_cast<uint32_t>(bytes[pos++]) << 8;
            if (idx >= n)
                return false;
            out.set(idx);
        }
        return pos == len;
    }
    if (bytes[0] == 2) {
        uint64_t i = 0;
        for (size_t pos = 1; pos < len; pos++) {
            i += bytes[pos];
            if (bytes[pos] == 255)
                continue;
            if (i >= n)
                return false;
            out.set(static_cast<size_t>(i));
            i++;
        }
        return true;
    }
    return false;
}

/** hw distinct random indices below n, sorted. */
std::vector<uint32_t>
randomDefects(Rng &rng, uint32_t n, uint32_t hw)
{
    std::vector<uint32_t> d;
    while (d.size() < hw) {
        const uint32_t i = static_cast<uint32_t>(rng.uniformInt(n));
        if (std::find(d.begin(), d.end(), i) == d.end())
            d.push_back(i);
    }
    std::sort(d.begin(), d.end());
    return d;
}

constexpr SyndromeCodec kCodecs[] = {SyndromeCodec::Raw,
                                     SyndromeCodec::Sparse,
                                     SyndromeCodec::RunLength};

/**
 * tryDecodeDefects() checked against the reference decoder: the same
 * accept/reject verdict and, on success, the reference's set as a
 * strictly increasing list.
 */
void
expectListDecodeMatchesReference(const uint8_t *bytes, size_t len,
                                 uint32_t n)
{
    BitVec want;
    const bool want_ok = referenceDecode(bytes, len, n, want);
    std::vector<uint32_t> got(n + 1);
    size_t count = 0;
    const bool ok = tryDecodeDefects(bytes, len, n, got, count);
    ASSERT_EQ(ok, want_ok);
    if (!ok)
        return;
    got.resize(count);
    EXPECT_EQ(got, want.onesIndices());
}

class CodecRoundTrip
    : public ::testing::TestWithParam<SyndromeCodec>
{
};

TEST_P(CodecRoundTrip, EmptySyndrome)
{
    BitVec v(192);
    auto enc = encodeSyndrome(v, GetParam());
    EXPECT_TRUE(decodeSyndrome(enc, 192) == v);
}

TEST_P(CodecRoundTrip, SingleBitEachPosition)
{
    const uint32_t n = 100;
    for (uint32_t i = 0; i < n; i += 7) {
        BitVec v = fromIndices(n, {i});
        auto enc = encodeSyndrome(v, GetParam());
        EXPECT_TRUE(decodeSyndrome(enc, n) == v) << "bit " << i;
    }
}

TEST_P(CodecRoundTrip, RandomSyndromes)
{
    Rng rng(11);
    for (int trial = 0; trial < 200; trial++) {
        uint32_t n = 16 + static_cast<uint32_t>(rng.uniformInt(500));
        BitVec v(n);
        // Mix of sparse and dense densities.
        double density = (trial % 4 == 0) ? 0.4 : 0.02;
        for (uint32_t i = 0; i < n; i++) {
            if (rng.bernoulli(density))
                v.set(i);
        }
        auto enc = encodeSyndrome(v, GetParam());
        EXPECT_TRUE(decodeSyndrome(enc, n) == v)
            << "trial " << trial << " n=" << n;
    }
}

TEST_P(CodecRoundTrip, NeverLargerThanRawPlusTag)
{
    Rng rng(13);
    for (int trial = 0; trial < 100; trial++) {
        uint32_t n = 400;
        BitVec v(n);
        for (uint32_t i = 0; i < n; i++) {
            if (rng.bernoulli(0.5))
                v.set(i);
        }
        auto enc = encodeSyndrome(v, GetParam());
        EXPECT_LE(enc.size(), n / 8 + 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Codecs, CodecRoundTrip,
                         ::testing::Values(SyndromeCodec::Raw,
                                           SyndromeCodec::Sparse,
                                           SyndromeCodec::RunLength));

TEST(Codec, SparseBeatsRawOnTypicalSyndromes)
{
    // Real d = 7, p = 1e-3 syndromes are sparse; the sparse codec
    // should compress them several-fold on average.
    ExperimentConfig cfg;
    cfg.distance = 7;
    cfg.physicalErrorRate = 1e-3;
    ExperimentContext ctx(cfg);

    Rng rng(17);
    BitVec dets, obs;
    CompressionStats sparse_stats, rle_stats;
    for (int s = 0; s < 3000; s++) {
        ctx.sampler().sample(rng, dets, obs);
        sparse_stats.add(
            static_cast<uint32_t>(dets.size()),
            encodeSyndrome(dets, SyndromeCodec::Sparse).size());
        rle_stats.add(
            static_cast<uint32_t>(dets.size()),
            encodeSyndrome(dets, SyndromeCodec::RunLength).size());

        // And every encoding round-trips.
        auto enc = encodeSyndrome(dets, SyndromeCodec::Sparse);
        ASSERT_TRUE(decodeSyndrome(
                        enc, static_cast<uint32_t>(dets.size())) ==
                    dets);
    }
    EXPECT_GT(sparse_stats.ratio(), 3.0);
    EXPECT_GT(rle_stats.ratio(), 2.0);
}

TEST(Codec, LongZeroRunsUseEscape)
{
    // A bit beyond position 255 exercises the run-length escape.
    BitVec v = fromIndices(400, {0, 300, 399});
    auto enc = encodeSyndrome(v, SyndromeCodec::RunLength);
    EXPECT_TRUE(decodeSyndrome(enc, 400) == v);
}

TEST(Codec, WideSparseIndices)
{
    // Syndromes longer than 256 bits need 2-byte sparse indices.
    BitVec v = fromIndices(400, {1, 257, 399});
    auto enc = encodeSyndrome(v, SyndromeCodec::Sparse);
    EXPECT_TRUE(decodeSyndrome(enc, 400) == v);
}

TEST(Codec, StatsAccumulate)
{
    CompressionStats stats;
    stats.add(80, 4);
    stats.add(80, 7);
    EXPECT_EQ(stats.syndromes, 2u);
    EXPECT_EQ(stats.rawBytes, 22u);  // 2 * (10 + 1).
    EXPECT_EQ(stats.encodedBytes, 11u);
    EXPECT_DOUBLE_EQ(stats.ratio(), 2.0);
    EXPECT_DOUBLE_EQ(stats.meanEncodedBytes(), 5.5);
}

TEST(Codec, TransmissionTime)
{
    // 10 bytes at 10 MBps = 1 us.
    EXPECT_DOUBLE_EQ(transmissionTimeNs(10.0, 10.0), 1000.0);
    EXPECT_DOUBLE_EQ(transmissionTimeNs(10.0, 0.0), 0.0);
}

TEST(Codec, RejectsCorruptBuffer)
{
    EXPECT_DEATH(decodeSyndrome({}, 16), "empty");
    EXPECT_DEATH(decodeSyndrome({99}, 16), "unknown");
}

TEST(Codec, IntoVariantsRoundTripWithoutReallocation)
{
    // The wire path's buffer-reusing entry points: encodeSyndromeInto
    // appends into a caller vector, tryDecodeSyndromeInto fills a
    // caller BitVec and reports failure instead of aborting.
    Rng rng(23);
    std::vector<uint8_t> enc;
    BitVec out;
    for (int trial = 0; trial < 200; trial++) {
        uint32_t n = 16 + static_cast<uint32_t>(rng.uniformInt(500));
        BitVec v(n);
        double density = (trial % 5 == 0) ? 0.4 : 0.02;
        for (uint32_t i = 0; i < n; i++) {
            if (rng.bernoulli(density))
                v.set(i);
        }
        for (SyndromeCodec codec :
             {SyndromeCodec::Raw, SyndromeCodec::Sparse,
              SyndromeCodec::RunLength}) {
            enc.clear();
            encodeSyndromeInto(v, codec, enc);
            EXPECT_EQ(enc, encodeSyndrome(v, codec));
            ASSERT_TRUE(
                tryDecodeSyndromeInto(enc.data(), enc.size(), n, out));
            EXPECT_TRUE(out == v) << "trial " << trial;
        }
    }
}

TEST(Codec, DefectListEncoderMatchesReferenceBytes)
{
    // Every codec at a one-byte-index (72-bit) and a two-byte-index
    // (720-bit) width: the empty list, HW 1-10, and a list dense enough
    // that Sparse and RunLength fall back to Raw. The list encoder, the
    // BitVec encoder and the bit-at-a-time reference agree byte for
    // byte, and the list encoder appends after what `out` held.
    Rng rng(29);
    for (uint32_t n : {72u, 720u}) {
        std::vector<std::vector<uint32_t>> lists{{}};
        for (uint32_t hw = 1; hw <= 10; hw++) {
            for (int t = 0; t < 20; t++)
                lists.push_back(randomDefects(rng, n, hw));
        }
        std::vector<uint32_t> dense;
        for (uint32_t i = 0; i < n; i += 3)
            dense.push_back(i);
        lists.push_back(dense);

        for (const auto &defects : lists) {
            const BitVec v = fromIndices(n, defects);
            for (SyndromeCodec codec : kCodecs) {
                const auto want = referenceEncode(v, codec);
                std::vector<uint8_t> got = {0xEE, 0xFF};
                appendEncodedDefects(defects, n, codec, got);
                ASSERT_EQ(got.size(), 2 + want.size());
                EXPECT_EQ(got[0], 0xEE);
                EXPECT_EQ(got[1], 0xFF);
                EXPECT_TRUE(std::equal(want.begin(), want.end(),
                                       got.begin() + 2))
                    << "n=" << n << " hw=" << defects.size()
                    << " codec " << static_cast<int>(codec);
                EXPECT_EQ(encodeSyndrome(v, codec), want);
            }
        }
        // The dense list really takes the fallback.
        for (SyndromeCodec codec : kCodecs) {
            std::vector<uint8_t> got;
            appendEncodedDefects(dense, n, codec, got);
            EXPECT_EQ(got[0], 0u) << "codec " << static_cast<int>(codec);
        }
    }
}

TEST(Codec, DefectListEncoderSortsAndDeduplicates)
{
    // A list that is not strictly increasing encodes the set a BitVec
    // with those bits holds.
    const std::vector<uint32_t> messy{40, 3, 17, 3, 71, 40};
    const BitVec v = fromIndices(72, messy);
    for (SyndromeCodec codec : kCodecs) {
        std::vector<uint8_t> got;
        appendEncodedDefects(messy, 72, codec, got);
        EXPECT_EQ(got, referenceEncode(v, codec));
    }
}

TEST(Codec, DefectListDecoderReturnsSortedUniqueList)
{
    Rng rng(31);
    for (uint32_t n : {72u, 720u}) {
        for (uint32_t hw = 0; hw <= 10; hw++) {
            const auto defects = randomDefects(rng, n, hw);
            for (SyndromeCodec codec : kCodecs) {
                const auto enc = encodeSyndrome(fromIndices(n, defects),
                                                codec);
                uint32_t out[16];
                size_t count = 99;
                ASSERT_TRUE(tryDecodeDefects(enc.data(), enc.size(), n,
                                             out, count));
                ASSERT_EQ(count, defects.size());
                EXPECT_TRUE(std::equal(defects.begin(), defects.end(),
                                       out));
            }
        }
    }

    // Sparse payloads may list indices in any order and more than
    // once: narrow {9, 3, 9, 0, 3} and wide {700, 5, 300, 5}.
    const uint8_t narrow[] = {1, 5, 9, 3, 9, 0, 3};
    const uint8_t wide[] = {1, 4, 0xBC, 0x02, 5, 0, 0x2C, 0x01, 5, 0};
    const std::vector<uint32_t> narrow_want{0, 3, 9};
    const std::vector<uint32_t> wide_want{5, 300, 700};
    for (const auto &[bytes, len, n, want] :
         {std::tuple{narrow, sizeof(narrow), 72u, narrow_want},
          std::tuple{wide, sizeof(wide), 720u, wide_want}}) {
        uint32_t out[8];
        size_t count = 0;
        ASSERT_TRUE(tryDecodeDefects(bytes, len, n, out, count));
        ASSERT_EQ(count, want.size());
        EXPECT_TRUE(std::equal(want.begin(), want.end(), out));
        expectListDecodeMatchesReference(bytes, len, n);
        BitVec bv;
        ASSERT_TRUE(tryDecodeSyndromeInto(bytes, len, n, bv));
        EXPECT_EQ(bv.onesIndices(), want);
    }
    // An unsorted payload with an index out of range is rejected.
    const uint8_t bad[] = {1, 3, 9, 3, 72};
    uint32_t out[8];
    size_t count = 0;
    EXPECT_FALSE(tryDecodeDefects(bad, sizeof(bad), 72, out, count));
}

TEST(Codec, DefectListDecoderCountsPastItsCapacity)
{
    // A list longer than the output span reports its full length and
    // keeps the smallest entries, in every codec and for an unsorted
    // Sparse payload.
    const std::vector<uint32_t> defects{2, 5, 11, 13, 20, 33, 41, 50, 64, 70};
    for (SyndromeCodec codec : kCodecs) {
        const auto enc = encodeSyndrome(fromIndices(72, defects), codec);
        uint32_t out[4];
        size_t count = 0;
        ASSERT_TRUE(tryDecodeDefects(enc.data(), enc.size(), 72, out,
                                     count));
        EXPECT_EQ(count, defects.size());
        EXPECT_TRUE(std::equal(out, out + 4, defects.begin()));
    }
    const uint8_t unsorted[] = {1, 6, 50, 2, 41, 2, 5, 11};
    uint32_t out[3];
    size_t count = 0;
    ASSERT_TRUE(tryDecodeDefects(unsorted, sizeof(unsorted), 72, out,
                                 count));
    EXPECT_EQ(count, 5u);
    const uint32_t want[] = {2, 5, 11};
    EXPECT_TRUE(std::equal(out, out + 3, want));
}

TEST(Codec, TryDecodeRejectsTruncationWithoutCrashing)
{
    // Every proper prefix of a valid encoding must be rejected (or,
    // for self-delimiting cases, still decode to a valid bit vector)
    // without crashing or reading past the buffer.
    BitVec v = fromIndices(400, {1, 37, 257, 399});
    BitVec out;
    for (SyndromeCodec codec :
         {SyndromeCodec::Raw, SyndromeCodec::Sparse,
          SyndromeCodec::RunLength}) {
        auto enc = encodeSyndrome(v, codec);
        for (size_t cut = 0; cut < enc.size(); cut++) {
            const bool ok =
                tryDecodeSyndromeInto(enc.data(), cut, 400, out);
            if (ok)
                EXPECT_EQ(out.size(), 400u);
            expectListDecodeMatchesReference(enc.data(), cut, 400);
        }
        // The full buffer still decodes after all the truncated
        // attempts reused `out`.
        ASSERT_TRUE(
            tryDecodeSyndromeInto(enc.data(), enc.size(), 400, out));
        EXPECT_TRUE(out == v);
    }
    // Zero-length and unknown-tag buffers fail cleanly (the fatal
    // decodeSyndrome path death-tests these; the wire path must not
    // die on attacker-controlled bytes).
    EXPECT_FALSE(tryDecodeSyndromeInto(nullptr, 0, 16, out));
    const uint8_t junk[] = {99, 1, 2};
    EXPECT_FALSE(tryDecodeSyndromeInto(junk, sizeof(junk), 16, out));
}

TEST(Codec, TryDecodeSurvivesBitFlipFuzz)
{
    // Flip every bit of every codec's encoding of a real-ish
    // syndrome: each mutation must either decode to SOME valid
    // n-bit vector or return false — never crash, abort or over-read.
    // The list decoder must agree with the reference on every one.
    BitVec v = fromIndices(360, {3, 17, 100, 255, 256, 359});
    BitVec out;
    for (SyndromeCodec codec :
         {SyndromeCodec::Raw, SyndromeCodec::Sparse,
          SyndromeCodec::RunLength}) {
        auto enc = encodeSyndrome(v, codec);
        size_t accepted = 0;
        for (size_t bit = 0; bit < enc.size() * 8; bit++) {
            auto mutated = enc;
            mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
            if (tryDecodeSyndromeInto(mutated.data(), mutated.size(),
                                      360, out)) {
                accepted++;
                EXPECT_EQ(out.size(), 360u);
            }
            expectListDecodeMatchesReference(mutated.data(),
                                             mutated.size(), 360);
        }
        // Sanity: the fuzz actually rejected something (a codec that
        // accepts arbitrary bytes validates nothing).
        EXPECT_LT(accepted, enc.size() * 8)
            << "codec " << static_cast<int>(codec);
    }
}

} // namespace
} // namespace astrea
