/**
 * @file
 * Tests for the experiment harness: shot loops, Hamming-weight
 * histograms and their analytic model, latency histograms, the
 * semi-analytic estimator, and the sweep helpers. The sampled loops
 * must give identical results at 1, 2 and 4 threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <tuple>
#include <vector>

#include "astrea/resource_model.hh"
#include "harness/block_engine.hh"
#include "harness/hw_histogram.hh"
#include "harness/latency_stats.hh"
#include "harness/memory_experiment.hh"
#include "harness/semi_analytic.hh"
#include "harness/sweeps.hh"

namespace astrea
{
namespace
{

const ExperimentContext &
d3Context()
{
    static ExperimentContext ctx = [] {
        ExperimentConfig cfg;
        cfg.distance = 3;
        cfg.physicalErrorRate = 2e-3;
        return ExperimentContext(cfg);
    }();
    return ctx;
}

TEST(MemoryExperiment, ShotAccounting)
{
    ExperimentResult r = runMemoryExperiment(d3Context(),
                                             astreaFactory(), 5000, 1);
    EXPECT_EQ(r.logicalErrors.trials, 5000u);
    EXPECT_EQ(r.hammingWeights.total(), 5000u);
    EXPECT_EQ(r.latencyNs.count(), 5000u);
}

/** SplitMix64's finalizer, as count_pin_test's digest uses it. */
uint64_t
mix(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One decoded shot: its defects, then its verdict. */
using ShotRecord = std::tuple<std::vector<uint32_t>, uint64_t, bool>;

/** Wraps a decoder and records every shot it decodes into a log. */
class RecordingDecoder : public Decoder
{
  public:
    RecordingDecoder(std::unique_ptr<Decoder> inner,
                     std::vector<ShotRecord> &log, std::mutex &mu)
        : inner_(std::move(inner)), log_(log), mu_(mu)
    {
    }

    void
    decodeInto(std::span<const uint32_t> defects, DecodeResult &out,
               DecodeScratch &scratch) override
    {
        inner_->decodeInto(defects, out, scratch);
        std::lock_guard<std::mutex> lock(mu_);
        log_.emplace_back(std::vector<uint32_t>(defects.begin(),
                                                defects.end()),
                          out.obsMask, out.gaveUp);
    }

    void
    decodeBatch(const SyndromeBatch &batch,
                std::vector<DecodeResult> &results,
                DecodeScratch &scratch) override
    {
        inner_->decodeBatch(batch, results, scratch);
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t i = 0; i < batch.size(); i++) {
            const auto d = batch.at(i);
            log_.emplace_back(std::vector<uint32_t>(d.begin(), d.end()),
                              results[i].obsMask, results[i].gaveUp);
        }
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<Decoder> inner_;
    std::vector<ShotRecord> &log_;
    std::mutex &mu_;
};

/**
 * count_pin_test's per-shot verdict digest over every shot a run
 * decoded. Workers decode blocks in any order, so the records are
 * sorted first: equal digests mean the same syndromes got the same
 * verdicts.
 */
uint64_t
verdictDigest(std::vector<ShotRecord> log)
{
    std::sort(log.begin(), log.end());
    uint64_t digest = 0;
    for (size_t shot = 0; shot < log.size(); shot++) {
        const auto &[defects, obs_mask, gave_up] = log[shot];
        digest = mix(digest ^ mix(shot) ^ mix(obs_mask + 1) ^
                     (gave_up ? 0x5bd1e995ull : 0));
    }
    return digest;
}

void
expectSameStats(const RunningStats &a, const RunningStats &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

void
expectSameHistogram(const Histogram &a, const Histogram &b)
{
    ASSERT_EQ(a.maxKey(), b.maxKey());
    for (size_t k = 0; k <= a.maxKey(); k++)
        EXPECT_EQ(a.at(k), b.at(k)) << "key " << k;
    EXPECT_EQ(a.overflow(), b.overflow());
    EXPECT_EQ(a.total(), b.total());
}

void
expectSameLatency(const LatencyHistogram &a, const LatencyHistogram &b)
{
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_EQ(a.meanNs(), b.meanNs());
    EXPECT_EQ(a.maxNs(), b.maxNs());
    EXPECT_EQ(a.overflowCount(), b.overflowCount());
    ASSERT_EQ(a.numBuckets(), b.numBuckets());
    for (size_t i = 0; i < a.numBuckets(); i++) {
        EXPECT_EQ(a.bucketFraction(i), b.bucketFraction(i))
            << "bucket " << i;
    }
}

/** Shots for the thread-count cases: 5 blocks, the last one partial. */
constexpr uint64_t kFiveBlocks = 4 * kBlockShots + 1000;

TEST(MemoryExperiment, SameResultAtEveryThreadCount)
{
    // Astrea with a lowered HW cap gives up on some shots, so every
    // ExperimentResult field is exercised; its latencies are modeled
    // cycles, so the running means must match to the bit.
    AstreaConfig acfg;
    acfg.maxHammingWeight = 4;
    std::vector<ExperimentResult> results;
    std::vector<uint64_t> digests;
    for (unsigned threads : {1u, 2u, 4u}) {
        std::vector<ShotRecord> log;
        std::mutex mu;
        const DecoderFactory inner = astreaFactory(acfg);
        const DecoderFactory recording =
            [&](const ExperimentContext &ctx) -> std::unique_ptr<Decoder> {
            return std::make_unique<RecordingDecoder>(inner(ctx), log, mu);
        };
        results.push_back(runMemoryExperiment(d3Context(), recording,
                                              kFiveBlocks, 7, threads));
        ASSERT_EQ(log.size(), kFiveBlocks);
        digests.push_back(verdictDigest(std::move(log)));
    }
    ASSERT_GT(results[0].gaveUps, 0u);
    ASSERT_GT(results[0].logicalErrors.successes, 0u);
    for (size_t i = 1; i < results.size(); i++) {
        SCOPED_TRACE(::testing::Message() << "run " << i);
        const ExperimentResult &a = results[0], &b = results[i];
        EXPECT_EQ(digests[i], digests[0]);
        EXPECT_EQ(a.logicalErrors.successes, b.logicalErrors.successes);
        EXPECT_EQ(a.logicalErrors.trials, b.logicalErrors.trials);
        expectSameHistogram(a.hammingWeights, b.hammingWeights);
        expectSameStats(a.latencyNs, b.latencyNs);
        expectSameStats(a.latencyNontrivialNs, b.latencyNontrivialNs);
        expectSameLatency(a.latencyHist, b.latencyHist);
        expectSameLatency(a.latencyNontrivialHist, b.latencyNontrivialHist);
        EXPECT_EQ(a.gaveUps, b.gaveUps);
        expectSameHistogram(a.gaveUpHw, b.gaveUpHw);
    }
}

TEST(MemoryExperiment, ResultMerge)
{
    ExperimentResult a, b;
    a.logicalErrors = {2, 100};
    b.logicalErrors = {3, 200};
    a.gaveUps = 1;
    b.gaveUps = 2;
    a.merge(b);
    EXPECT_EQ(a.logicalErrors.successes, 5u);
    EXPECT_EQ(a.logicalErrors.trials, 300u);
    EXPECT_EQ(a.gaveUps, 3u);
}

TEST(HwHistogram, MeasuredFrequenciesSumToOne)
{
    // The same histogram at 1, 2 and 4 threads.
    const HwDistribution one =
        measureHwDistribution(d3Context(), kFiveBlocks, 5, 1);
    for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        HwDistribution dist =
            measureHwDistribution(d3Context(), kFiveBlocks, 5, threads);
        EXPECT_EQ(dist.shots, kFiveBlocks);
        expectSameHistogram(dist.hist, one.hist);
        double total = 0.0;
        for (size_t h = 0; h <= dist.hist.maxKey(); h++)
            total += dist.frequency(h);
        EXPECT_NEAR(total, 1.0, 1e-9);
    }
}

TEST(HwHistogram, AnalyticModelIsUpperBoundInTheTail)
{
    // Sec. 4.2: the binomial model upper-bounds the real tail
    // frequencies (not every fault flips two bits).
    const uint32_t d = 3;
    const double p = 2e-3;
    HwDistribution dist = measureHwDistribution(d3Context(), 200000, 9);
    for (uint32_t h = 4; h <= 10; h += 2) {
        double analytic = analyticHwTail(d, p, h);
        double measured = dist.hist.tailFrequency(h);
        EXPECT_GT(analytic, measured * 0.5) << "h=" << h;
    }
}

TEST(HwHistogram, AnalyticPmfProperties)
{
    // Odd weights are impossible in the pair-flip model; even weights
    // sum to one.
    EXPECT_DOUBLE_EQ(analyticHwProbability(5, 1e-3, 3), 0.0);
    double total = 0.0;
    for (uint32_t h = 0; h <= 144; h += 2)
        total += analyticHwProbability(5, 1e-3, h);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(HwHistogram, RangeFrequency)
{
    HwDistribution dist = measureHwDistribution(d3Context(), 5000, 11);
    double all = dist.rangeFrequency(0, 64);
    EXPECT_NEAR(all, 1.0, 1e-9);
    EXPECT_LE(dist.rangeFrequency(1, 2), 1.0);
}

TEST(LatencyHistogram, BucketsAndFractions)
{
    LatencyHistogram h(100.0, 1000.0);
    h.add(50.0);
    h.add(150.0);
    h.add(2500.0);  // Overflow.
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_DOUBLE_EQ(h.maxNs(), 2500.0);
    EXPECT_NEAR(h.fractionAbove(1000.0), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(h.bucketFraction(0), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(h.bucketFraction(1), 1.0 / 3.0, 1e-12);
}

TEST(LatencyHistogram, EmptyHistogramPercentilesAreZero)
{
    LatencyHistogram h(100.0, 1000.0);
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.overflowCount(), 0u);
    EXPECT_DOUBLE_EQ(h.percentileNs(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.p999Ns(), 0.0);
    EXPECT_DOUBLE_EQ(h.fractionAbove(0.0), 0.0);
}

TEST(LatencyHistogram, AllSamplesInOverflowReportObservedMax)
{
    LatencyHistogram h(100.0, 1000.0);
    h.add(5000.0);
    h.add(7000.0);
    h.add(9000.0);
    EXPECT_EQ(h.overflowCount(), 3u);
    // Every rank lands in the overflow region: the percentile falls
    // back to the observed maximum rather than inventing a bucket.
    EXPECT_DOUBLE_EQ(h.percentileNs(50.0), 9000.0);
    EXPECT_DOUBLE_EQ(h.p99Ns(), 9000.0);
    EXPECT_DOUBLE_EQ(h.p999Ns(), 9000.0);
}

TEST(LatencyHistogram, P999TracksExtremeTail)
{
    LatencyHistogram h(50.0, 10000.0);
    for (int i = 0; i < 499; i++)
        h.add(100.0);
    h.add(5000.0);
    // p99 sits in the bulk; p99.9 must reach the lone tail sample.
    EXPECT_LT(h.p99Ns(), 200.0);
    EXPECT_DOUBLE_EQ(h.p999Ns(), 5000.0);
    EXPECT_EQ(h.overflowCount(), 0u);
}

TEST(LatencyHistogram, MeasureDistributionSkipsTrivialShots)
{
    // The same histogram, modeled latencies and all, at 1, 2 and 4
    // threads.
    const LatencyHistogram one = measureLatencyDistribution(
        d3Context(), astreaFactory(), kFiveBlocks, 13, 1);
    for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        LatencyHistogram h = measureLatencyDistribution(
            d3Context(), astreaFactory(), kFiveBlocks, 13, threads);
        EXPECT_GT(h.samples(), 0u);
        EXPECT_LT(h.samples(), kFiveBlocks);  // Zero-HW shots skipped.
        // Astrea's worst case at d=3 is 32 ns (Fig. 9).
        EXPECT_LE(h.maxNs(), 456.0);
        EXPECT_DOUBLE_EQ(h.fractionAbove(1000.0), 0.0);
        expectSameLatency(h, one);
    }
}

TEST(SemiAnalytic, SingleFaultNeverFailsDistance3)
{
    // A distance-3 code corrects any single fault under exact MWPM.
    SemiAnalyticConfig cfg;
    cfg.maxFaults = 2;
    cfg.shotsPerK = 3000;
    cfg.seed = 17;
    SemiAnalyticResult r =
        estimateLerSemiAnalytic(d3Context(), mwpmFactory(), cfg);
    EXPECT_DOUBLE_EQ(r.failureProb[0], 0.0);
    EXPECT_DOUBLE_EQ(r.failureProb[1], 0.0);
    EXPECT_GT(r.failureProb[2], 0.0);  // Two faults can defeat d=3.
}

TEST(SemiAnalytic, OccurrenceProbabilitiesAreBinomial)
{
    SemiAnalyticConfig cfg;
    cfg.maxFaults = 3;
    cfg.shotsPerK = 100;
    SemiAnalyticResult r =
        estimateLerSemiAnalytic(d3Context(), mwpmFactory(), cfg);
    EXPECT_GT(r.faultSites, 0u);
    for (uint32_t k = 0; k <= 3; k++) {
        EXPECT_NEAR(r.occurrenceProb[k],
                    binomialPmf(r.faultSites, 2e-3, k), 1e-12);
    }
    EXPECT_GE(r.tailMass, 0.0);
    EXPECT_LT(r.tailMass, 0.1);
}

TEST(SemiAnalytic, LerConsistentWithMonteCarlo)
{
    // At d = 3 and an inflated p the LER is large enough for a direct
    // comparison between the two estimators.
    SemiAnalyticConfig cfg;
    cfg.maxFaults = 8;
    cfg.shotsPerK = 20000;
    cfg.seed = 19;
    SemiAnalyticResult sa =
        estimateLerSemiAnalytic(d3Context(), mwpmFactory(), cfg);
    ExperimentResult mc =
        runMemoryExperiment(d3Context(), mwpmFactory(), 200000, 23);
    EXPECT_GT(sa.ler, 0.0);
    EXPECT_LT(std::abs(std::log10(sa.ler) - std::log10(mc.ler())),
              0.35);
}

TEST(Sweeps, PhysicalErrorRateSweepShape)
{
    std::vector<NamedFactory> decoders{{"mwpm", mwpmFactory()}};
    auto points = sweepPhysicalErrorRate(3, Basis::Z, {1e-3, 8e-3},
                                         decoders, 30000, 29);
    ASSERT_EQ(points.size(), 2u);
    ASSERT_EQ(points[0].results.size(), 1u);
    // LER grows with p.
    EXPECT_LT(points[0].results[0].ler(), points[1].results[0].ler());
}

TEST(Sweeps, DistanceSweepSuppressesErrors)
{
    std::vector<NamedFactory> decoders{{"mwpm", mwpmFactory()}};
    auto points = sweepDistance({3, 5}, Basis::Z, 5e-3, decoders,
                                30000, 31);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_GT(points[0].results[0].ler(),
              points[1].results[0].ler());
}

TEST(Sweeps, DecodeBudgetMapsToCycles)
{
    auto points = sweepDecodeBudget(d3Context(), {400.0, 1000.0},
                                    AstreaGConfig{}, 2000, 37);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_DOUBLE_EQ(points[0].x, 400.0);
}

TEST(ResourceModel, SramScalesWithDistance)
{
    AstreaGConfig cfg;
    AstreaGSram s7 = astreaGSram(7, 16, cfg);
    AstreaGSram s9 = astreaGSram(9, 24, cfg);
    EXPECT_EQ(s7.gwtBytes, 36864u);   // 36 KB, Table 6.
    EXPECT_EQ(s9.gwtBytes, 160000u);  // ~156 KB, Table 6.
    EXPECT_GT(s9.totalBytes(), s7.totalBytes());
    EXPECT_EQ(s7.lwtBytes, 512u);     // Table 6 row.
}

TEST(ResourceModel, UtilizationWithinDevice)
{
    FpgaUtilization a = astreaUtilization(7);
    EXPECT_GT(a.lutPercent, 0.0);
    EXPECT_LT(a.lutPercent, 100.0);
    EXPECT_LT(a.bramPercent, 100.0);
    EXPECT_DOUBLE_EQ(a.maxFreqMHz, 250.0);

    FpgaUtilization g = astreaGUtilization(9, 24, AstreaGConfig{});
    EXPECT_GT(g.lutPercent, a.lutPercent);
    EXPECT_LT(g.lutPercent, 100.0);
}

} // namespace
} // namespace astrea
