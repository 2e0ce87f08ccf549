/**
 * @file
 * Unit tests for the common utilities: RNG, bit vectors, statistics,
 * weight quantization, option parsing, and the parallel loop.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/bitvec.hh"
#include "common/cli.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "common/weight.hh"

namespace astrea
{
namespace
{

// ---------------------------------------------------------------- Rng

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++) {
        if (a() == b())
            same++;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 100000; i++) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformIntInRangeAndRoughlyUniform)
{
    Rng rng(9);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; i++) {
        uint64_t v = rng.uniformInt(10);
        ASSERT_LT(v, 10u);
        counts[v]++;
    }
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 200000; i++)
        hits += rng.bernoulli(0.01);
    EXPECT_NEAR(hits / 200000.0, 0.01, 0.002);
}

TEST(Rng, GeometricSkipMatchesBernoulliScan)
{
    // Skip-sampling a Bernoulli(p) stream must hit positions at rate p.
    const double p = 0.05;
    const uint64_t stream_len = 200000;
    Rng rng(13);
    uint64_t hits = 0;
    uint64_t pos = rng.geometricSkip(p);
    while (pos < stream_len) {
        hits++;
        uint64_t skip = rng.geometricSkip(p);
        if (skip == ~0ull)
            break;
        pos += skip + 1;
    }
    EXPECT_NEAR(static_cast<double>(hits) / stream_len, p, 0.005);
}

TEST(Rng, GeometricSkipEdgeCases)
{
    Rng rng(17);
    EXPECT_EQ(rng.geometricSkip(1.0), 0u);
    EXPECT_EQ(rng.geometricSkip(0.0), ~0ull);
}

TEST(Rng, SplitStreamsAreIndependent)
{
    Rng root(21);
    Rng a = root.split(0);
    Rng b = root.split(1);
    int same = 0;
    for (int i = 0; i < 100; i++) {
        if (a() == b())
            same++;
    }
    EXPECT_LT(same, 3);
}

// ------------------------------------------------------------- BitVec

TEST(BitVec, SetGetFlip)
{
    BitVec v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_FALSE(v.get(0));
    v.set(0);
    v.set(64);
    v.set(129);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_FALSE(v.get(1));
    EXPECT_FALSE(v.flip(64));
    EXPECT_FALSE(v.get(64));
    EXPECT_TRUE(v.flip(65));
}

TEST(BitVec, PopcountAndOnes)
{
    BitVec v(200);
    std::set<uint32_t> expected{3, 63, 64, 127, 128, 199};
    for (auto i : expected)
        v.set(i);
    EXPECT_EQ(v.popcount(), expected.size());
    auto ones = v.onesIndices();
    EXPECT_EQ(std::set<uint32_t>(ones.begin(), ones.end()), expected);
    // Indices must come back sorted.
    for (size_t i = 1; i < ones.size(); i++)
        EXPECT_LT(ones[i - 1], ones[i]);
}

TEST(BitVec, XorAndEquality)
{
    BitVec a(100), b(100);
    a.set(5);
    a.set(70);
    b.set(70);
    b.set(80);
    a ^= b;
    EXPECT_TRUE(a.get(5));
    EXPECT_FALSE(a.get(70));
    EXPECT_TRUE(a.get(80));

    BitVec c(100);
    c.set(5);
    c.set(80);
    EXPECT_TRUE(a == c);
}

TEST(BitVec, ClearAndNone)
{
    BitVec v(70);
    EXPECT_TRUE(v.none());
    v.set(69);
    EXPECT_FALSE(v.none());
    v.clear();
    EXPECT_TRUE(v.none());
    EXPECT_EQ(v.size(), 70u);
}

TEST(BitVec, HashDiffersForDifferentContents)
{
    BitVec a(64), b(64);
    b.set(0);
    EXPECT_NE(a.hash(), b.hash());
    BitVec c(65);
    EXPECT_NE(a.hash(), c.hash());
}

TEST(BitVec, ToString)
{
    BitVec v(4);
    v.set(1);
    v.set(3);
    EXPECT_EQ(v.toString(), "0101");
}

// -------------------------------------------------------------- stats

TEST(RunningStats, BasicMoments)
{
    RunningStats s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStats, MergeMatchesSequential)
{
    RunningStats a, b, all;
    Rng rng(3);
    for (int i = 0; i < 1000; i++) {
        double x = rng.uniform() * 10.0;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeIntoEmpty)
{
    RunningStats a, b;
    b.add(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
}

TEST(Histogram, AddAndQuery)
{
    Histogram h(10);
    h.add(0, 5);
    h.add(3);
    h.add(10);
    h.add(11, 2);  // Overflow.
    EXPECT_EQ(h.total(), 9u);
    EXPECT_EQ(h.at(0), 5u);
    EXPECT_EQ(h.at(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_DOUBLE_EQ(h.frequency(0), 5.0 / 9.0);
    EXPECT_DOUBLE_EQ(h.tailFrequency(10), 2.0 / 9.0);
    EXPECT_DOUBLE_EQ(h.tailFrequency(2), 4.0 / 9.0);
    EXPECT_EQ(h.maxObserved(), 10u);
}

TEST(Histogram, Merge)
{
    Histogram a(5), b(5);
    a.add(1);
    b.add(1);
    b.add(4);
    a.merge(b);
    EXPECT_EQ(a.at(1), 2u);
    EXPECT_EQ(a.at(4), 1u);
    EXPECT_EQ(a.total(), 3u);
}

TEST(BinomialEstimate, WilsonIntervalBrackets)
{
    BinomialEstimate e{10, 1000};
    EXPECT_DOUBLE_EQ(e.pointEstimate(), 0.01);
    EXPECT_LT(e.lower95(), 0.01);
    EXPECT_GT(e.upper95(), 0.01);
    EXPECT_GT(e.lower95(), 0.0);
    EXPECT_LT(e.upper95(), 0.03);
}

TEST(BinomialEstimate, ZeroSuccesses)
{
    BinomialEstimate e{0, 1000};
    EXPECT_DOUBLE_EQ(e.pointEstimate(), 0.0);
    EXPECT_DOUBLE_EQ(e.lower95(), 0.0);
    EXPECT_GT(e.upper95(), 0.0);
    EXPECT_LT(e.upper95(), 0.01);
}

TEST(BinomialPmf, SumsToOne)
{
    double sum = 0.0;
    for (uint64_t k = 0; k <= 20; k++)
        sum += binomialPmf(20, 0.3, k);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(BinomialPmf, KnownValues)
{
    EXPECT_NEAR(binomialPmf(4, 0.5, 2), 0.375, 1e-12);
    EXPECT_DOUBLE_EQ(binomialPmf(4, 0.0, 0), 1.0);
    EXPECT_DOUBLE_EQ(binomialPmf(4, 1.0, 4), 1.0);
    EXPECT_DOUBLE_EQ(binomialPmf(4, 0.5, 5), 0.0);
}

TEST(FormatProb, Scientific)
{
    EXPECT_EQ(formatProb(6e-9), "6.00e-09");
}

// ------------------------------------------------------------- weight

TEST(Weight, QuantizeRoundTrip)
{
    // Weight 6 decades = 1-in-a-million probability (paper Sec. 5.1).
    QWeight q = quantizeWeight(6.0);
    EXPECT_EQ(q, 6 * kWeightScale);
    EXPECT_DOUBLE_EQ(weightToDecades(q), 6.0);
}

TEST(Weight, QuantizeSaturates)
{
    EXPECT_EQ(quantizeWeight(1000.0), kInfiniteWeight);
    EXPECT_EQ(quantizeWeight(-1.0), 0);
}

TEST(Weight, ProbToDecades)
{
    EXPECT_NEAR(probToDecades(1e-6), 6.0, 1e-12);
    EXPECT_DOUBLE_EQ(probToDecades(1.0), 0.0);
    EXPECT_TRUE(std::isinf(probToDecades(0.0)));
}

TEST(Weight, AddWeightsSaturates)
{
    EXPECT_EQ(addWeights(5, 7), 12u);
    EXPECT_EQ(addWeights(kInfiniteWeightSum, 7), kInfiniteWeightSum);
    EXPECT_EQ(addWeights(3, kInfiniteWeightSum), kInfiniteWeightSum);
}

TEST(Weight, AddWeightsAtQuantizedCeiling)
{
    // The 8-bit sentinel kInfiniteWeight (255) is NOT infinite once
    // promoted to a WeightSum: sums of ceiling entries stay finite.
    // The 16-bit kernel tiles preserve this by storing 255 verbatim
    // (only the tile's own 0xFFFF ceiling means "no edge"), so kernel
    // accumulation must agree with these scalar semantics.
    const WeightSum ceiling = kInfiniteWeight;  // 255
    EXPECT_EQ(addWeights(ceiling, ceiling), 510u);
    EXPECT_EQ(addWeights(ceiling, 0), 255u);
    // Five ceiling-weight effective pairs — the worst finite HW-10
    // candidate — stay far below the kernels' 16-bit ceiling.
    WeightSum five = 0;
    for (int i = 0; i < 5; i++)
        five = addWeights(five, addWeights(ceiling, ceiling));
    EXPECT_EQ(five, 2550u);
    EXPECT_LT(five, uint32_t{0xFFFF});
    // Only the WeightSum sentinel itself is absorbing.
    EXPECT_EQ(addWeights(kInfiniteWeightSum, kInfiniteWeightSum),
              kInfiniteWeightSum);
    EXPECT_EQ(addWeights(kInfiniteWeightSum - 1, 1),
              kInfiniteWeightSum);
}

TEST(Weight, DecadesToQuantized)
{
    EXPECT_EQ(decadesToQuantized(7.0), 7u * kWeightScale);
    EXPECT_EQ(decadesToQuantized(-3.0), 0u);
}

// ---------------------------------------------------------------- cli

TEST(Options, ParseKeyValue)
{
    const char *argv[] = {"prog", "--shots=500", "--p=1e-3", "--flag"};
    Options o = Options::parse(4, const_cast<char **>(argv));
    EXPECT_EQ(o.getUint("shots", 0), 500u);
    EXPECT_DOUBLE_EQ(o.getDouble("p", 0.0), 1e-3);
    EXPECT_EQ(o.getString("flag", ""), "1");
    EXPECT_EQ(o.getInt("missing", -7), -7);
}

TEST(Options, EnvironmentFallback)
{
    setenv("ASTREA_TEST_KNOB", "1234", 1);
    Options o;
    EXPECT_EQ(o.getUint("test-knob", 0), 1234u);
    EXPECT_TRUE(o.has("test-knob"));
    unsetenv("ASTREA_TEST_KNOB");
    EXPECT_FALSE(o.has("test-knob"));
}

TEST(Options, ArgvWinsOverEnvironment)
{
    setenv("ASTREA_SHOTS", "1", 1);
    const char *argv[] = {"prog", "--shots=2"};
    Options o = Options::parse(2, const_cast<char **>(argv));
    EXPECT_EQ(o.getUint("shots", 0), 2u);
    unsetenv("ASTREA_SHOTS");
}

// ------------------------------------------- the parallel loop (runBlocks)

/** Run the loop with workers that claim blocks until none are left;
 *  returns how many times each block ran. */
std::vector<int>
claimAll(uint64_t blocks, unsigned threads)
{
    std::vector<std::atomic<int>> ran(blocks);
    runBlocks(blocks, threads,
              [&](unsigned, std::atomic<uint64_t> &next) {
                  for (uint64_t b; (b = next.fetch_add(1)) < blocks;)
                      ran[b]++;
              });
    return {ran.begin(), ran.end()};
}

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 8u})
        EXPECT_EQ(claimAll(1000, threads), std::vector<int>(1000, 1))
            << threads << " threads";
}

TEST(ParallelFor, SingleWorkerRunsInline)
{
    // Worker 0 is the caller and the helpers are not, whatever the
    // worker count; with one worker, every block runs on the caller.
    const std::thread::id caller = std::this_thread::get_id();
    for (unsigned threads : {1u, 4u}) {
        std::atomic<bool> worker0_ran{false};
        std::atomic<uint64_t> on_caller{0};
        runBlocks(100, threads,
                  [&](unsigned w, std::atomic<uint64_t> &next) {
                      const bool here = std::this_thread::get_id() == caller;
                      EXPECT_EQ(here, w == 0);
                      if (w == 0)
                          worker0_ran = true;
                      for (uint64_t b; (b = next.fetch_add(1)) < 100;)
                          on_caller += here ? 1 : 0;
                  });
        EXPECT_TRUE(worker0_ran);
        if (threads == 1) {
            EXPECT_EQ(on_caller.load(), 100u);
        }
    }
}

TEST(ParallelFor, EmptyRange)
{
    bool called = false;
    runBlocks(0, 4, [&](unsigned, std::atomic<uint64_t> &) {
        called = true;
    });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, MoreWorkersThanWork)
{
    // At most one worker per block.
    std::atomic<unsigned> workers{0};
    std::atomic<uint64_t> claimed{0};
    runBlocks(3, 16, [&](unsigned w, std::atomic<uint64_t> &next) {
        EXPECT_LT(w, 3u);
        workers++;
        for (uint64_t b; (b = next.fetch_add(1)) < 3;)
            claimed++;
    });
    EXPECT_EQ(workers.load(), 3u);
    EXPECT_EQ(claimed.load(), 3u);
}

} // namespace
} // namespace astrea
