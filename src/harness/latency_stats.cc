#include "harness/latency_stats.hh"

#include <algorithm>
#include <cmath>

#include "harness/block_engine.hh"
#include "telemetry/telemetry.hh"

namespace astrea
{

LatencyHistogram::LatencyHistogram(double bucket_ns, double max_ns)
    : bucketNs_(bucket_ns),
      counts_(static_cast<size_t>(std::ceil(max_ns / bucket_ns)), 0)
{
}

void
LatencyHistogram::add(double ns)
{
    stats_.add(ns);
    size_t b = static_cast<size_t>(ns / bucketNs_);
    if (b < counts_.size())
        counts_[b]++;
    else
        overflow_++;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (size_t b = 0; b < counts_.size() && b < other.counts_.size();
         b++) {
        counts_[b] += other.counts_[b];
    }
    overflow_ += other.overflow_;
    stats_.merge(other.stats_);
}

double
LatencyHistogram::fractionAbove(double threshold_ns) const
{
    if (stats_.count() == 0)
        return 0.0;
    uint64_t above = overflow_;
    for (size_t b = 0; b < counts_.size(); b++) {
        if (bucketLowNs(b) >= threshold_ns)
            above += counts_[b];
    }
    // Buckets straddling the threshold are counted conservatively by
    // their lower edge; with 50 ns buckets against a 1000 ns deadline
    // the bias is negligible.
    return static_cast<double>(above) /
           static_cast<double>(stats_.count());
}

double
LatencyHistogram::percentileNs(double pct) const
{
    const uint64_t n = stats_.count();
    if (n == 0)
        return 0.0;
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    rank = std::clamp<uint64_t>(rank, 1, n);

    uint64_t cum = 0;
    for (size_t b = 0; b < counts_.size(); b++) {
        if (counts_[b] == 0)
            continue;
        cum += counts_[b];
        if (cum >= rank) {
            // Interpolate inside the bucket, clamped to the observed
            // extremes (a one-sample bucket reports its true value
            // only at the histogram's resolution).
            double before = static_cast<double>(cum - counts_[b]);
            double frac = (static_cast<double>(rank) - before) /
                          static_cast<double>(counts_[b]);
            double est = bucketLowNs(b) + frac * bucketNs_;
            return std::min(est, stats_.max());
        }
    }
    // Rank falls in the overflow region.
    return stats_.max();
}

size_t
LatencyHistogram::bucketIndex(double ns) const
{
    if (!std::isfinite(ns) || ns < 0.0)
        return counts_.size();
    const double b = ns / bucketNs_;
    if (b >= static_cast<double>(counts_.size()))
        return counts_.size();
    return static_cast<size_t>(b);
}

double
LatencyHistogram::bucketFraction(size_t b) const
{
    if (stats_.count() == 0 || b >= counts_.size())
        return 0.0;
    return static_cast<double>(counts_[b]) /
           static_cast<double>(stats_.count());
}

LatencyHistogram
measureLatencyDistribution(const ExperimentContext &ctx,
                           const DecoderFactory &factory, uint64_t shots,
                           uint64_t seed, unsigned threads)
{
    ASTREA_SPAN("latency_distribution");
    // 50 ns buckets up to 100 us: software MWPM routinely exceeds the
    // old 10 us default, which pushed its p90/p99 into the overflow
    // fallback (reporting the observed max instead of an estimate).
    LatencyHistogram total(50.0, 100000.0);
    BlockOrderMerge<LatencyHistogram> merged(total);
    runBlocks(blockCount(shots, kBlockShots), threads,
              [&](unsigned worker, std::atomic<uint64_t> &next_block) {
        auto decoder = factory(ctx);
        const std::string decoder_name = decoder->name();
        ShotStream stream(seed, shots, worker);
        while (stream.nextBlock(next_block)) {
            LatencyHistogram part(50.0, 100000.0);
            stream.decode(ctx, stream.remaining(), *decoder,
                          decoder_name.c_str(), nullptr,
                          [&](uint64_t,
                              const telemetry::TraceShotOutcome &o) {
                if (o.hw == 0)
                    return;
                part.add(o.latencyNs);
                ASTREA_LATENCY_NS("experiment.nontrivial_decode_ns",
                                  o.latencyNs);
            });
            merged.add(stream.block(), std::move(part));
        }
    });
    ASTREA_COUNTER_ADD("experiment.latency_shots", shots);
    return total;
}

} // namespace astrea
