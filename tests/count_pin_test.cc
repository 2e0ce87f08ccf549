/**
 * @file
 * Count pins: fixed-seed logical-error counts, give-up counts and a
 * per-shot verdict digest for Astrea (per-shot decodeInto and batched
 * decodeBatch), exact-weight Astrea and Astrea-G, on Table 4's d = 3
 * and d = 5 codes and Astrea-G's d = 7 code, all at p = 1e-3.
 *
 * The parity suites compare two paths of the current code with each
 * other, and integration_test only bounds LER ratios, so a change to
 * the sampled shots, the weight tables, a matching kernel or a
 * tie-break could pass both unnoticed. These values were recorded once
 * and every path must reproduce them exactly. The digest hashes each
 * shot's obsMask and gaveUp with its index, so it also catches two
 * flipped verdicts that leave the counts unchanged. CI runs the whole
 * suite once per kernel tier (ASTREA_FORCE_KERNEL), so every tier is
 * held to the same numbers.
 *
 * Shots are sampled single-threaded from one Rng, so the pins do not
 * depend on ASTREA_THREADS.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "common/rng.hh"
#include "harness/memory_experiment.hh"

namespace astrea
{
namespace
{

/** The three pinned values of one decoder over one shot set. */
struct Pin
{
    uint64_t logicalErrors = 0;
    uint64_t gaveUps = 0;
    uint64_t digest = 0;

    bool operator==(const Pin &) const = default;
};

void
PrintTo(const Pin &p, std::ostream *os)
{
    *os << "{" << p.logicalErrors << ", " << p.gaveUps << ", 0x"
        << std::hex << p.digest << std::dec << "ull}";
}

/** Fixed-seed sampled shots with their true observable masks. */
struct Shots
{
    SyndromeBatch batch;
    std::vector<uint64_t> actual;
};

Shots
sampleShots(const ExperimentContext &ctx, uint64_t n, uint64_t seed)
{
    Shots s;
    Rng rng(seed);
    BitVec dets(ctx.circuit().numDetectors());
    BitVec obs(ctx.circuit().numObservables());
    std::vector<uint32_t> defects;
    std::vector<uint32_t> obs_indices;
    s.actual.reserve(n);
    for (uint64_t i = 0; i < n; i++) {
        ctx.sampler().sample(rng, dets, obs);
        dets.onesIndicesInto(defects);
        s.batch.add(defects);
        obs.onesIndicesInto(obs_indices);
        uint64_t mask = 0;
        for (uint32_t o : obs_indices)
            mask |= 1ull << o;
        s.actual.push_back(mask);
    }
    return s;
}

/** SplitMix64's finalizer. */
uint64_t
mix(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

enum class Path
{
    kDecodeInto,
    kDecodeBatch,
};

/**
 * Decode every shot and tally the pin. The batch path decodes 64-shot
 * blocks, the block size of runMemoryExperiment.
 */
Pin
decodeAndPin(Decoder &dec, const Shots &s, Path path)
{
    constexpr size_t kBlock = 64;
    Pin pin;
    DecodeScratch scratch;
    SyndromeBatch block;
    std::vector<DecodeResult> results;
    for (size_t b = 0; b < s.batch.size(); b += kBlock) {
        const size_t n = std::min(kBlock, s.batch.size() - b);
        results.resize(std::max(results.size(), n));
        if (path == Path::kDecodeBatch) {
            block.clear();
            for (size_t i = 0; i < n; i++)
                block.add(s.batch.at(b + i));
            dec.decodeBatch(block, results, scratch);
        } else {
            for (size_t i = 0; i < n; i++)
                dec.decodeInto(s.batch.at(b + i), results[i], scratch);
        }
        for (size_t i = 0; i < n; i++) {
            const DecodeResult &r = results[i];
            const uint64_t shot = b + i;
            if (r.gaveUp)
                pin.gaveUps++;
            if (r.obsMask != s.actual[shot])
                pin.logicalErrors++;
            pin.digest = mix(pin.digest ^ mix(shot) ^
                             mix(r.obsMask + 1) ^
                             (r.gaveUp ? 0x5bd1e995ull : 0));
        }
    }
    return pin;
}

ExperimentContext
contextAt(uint32_t distance)
{
    ExperimentConfig cfg;
    cfg.distance = distance;
    cfg.physicalErrorRate = 1e-3;
    return ExperimentContext(cfg);
}

Pin
pinOf(const DecoderFactory &factory, const ExperimentContext &ctx,
      const Shots &s, Path path)
{
    auto dec = factory(ctx);
    return decodeAndPin(*dec, s, path);
}

AstreaConfig
exactWeights()
{
    AstreaConfig cfg;
    cfg.quantizedWeights = false;
    return cfg;
}

TEST(CountPin, Table4D3AtP1e3)
{
    const ExperimentContext ctx = contextAt(3);
    const Shots s = sampleShots(ctx, 100000, 0x3e3);

    const Pin astrea{69, 0, 0xd86e0708626d8031ull};
    EXPECT_EQ(pinOf(registryFactory("astrea"), ctx, s,
                    Path::kDecodeInto),
              astrea);
    EXPECT_EQ(pinOf(registryFactory("astrea"), ctx, s,
                    Path::kDecodeBatch),
              astrea);
    EXPECT_EQ(pinOf(astreaFactory(exactWeights()), ctx, s,
                    Path::kDecodeInto),
              (Pin{68, 0, 0x5899beaf4d2cc4baull}));
    // No d = 3 shot here exceeds HW 10, so Astrea-G takes Astrea's
    // exhaustive path on every shot.
    EXPECT_EQ(pinOf(registryFactory("astrea-g"), ctx, s,
                    Path::kDecodeBatch),
              astrea);
}

TEST(CountPin, Table4D5AtP1e3)
{
    const ExperimentContext ctx = contextAt(5);
    const Shots s = sampleShots(ctx, 400000, 0x5e3);

    const Pin astrea{46, 4, 0xc7a711fb87ac5ce1ull};
    EXPECT_EQ(pinOf(registryFactory("astrea"), ctx, s,
                    Path::kDecodeInto),
              astrea);
    EXPECT_EQ(pinOf(registryFactory("astrea"), ctx, s,
                    Path::kDecodeBatch),
              astrea);
    EXPECT_EQ(pinOf(astreaFactory(exactWeights()), ctx, s,
                    Path::kDecodeInto),
              (Pin{45, 4, 0xf5bd807ecc6eb529ull}));
    EXPECT_EQ(pinOf(registryFactory("astrea-g"), ctx, s,
                    Path::kDecodeBatch),
              (Pin{44, 0, 0xdf46d090e90eeb1dull}));
}

TEST(CountPin, AstreaGD7AtP1e3)
{
    const ExperimentContext ctx = contextAt(7);
    const Shots s = sampleShots(ctx, 600000, 0x7e3);

    EXPECT_EQ(pinOf(registryFactory("astrea-g"), ctx, s,
                    Path::kDecodeBatch),
              (Pin{4, 0, 0xe25e8dace66db6c5ull}));
}

} // namespace
} // namespace astrea
