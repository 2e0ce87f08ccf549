#include "harness/hw_histogram.hh"

#include <mutex>

#include "harness/block_engine.hh"
#include "surface_code/memory_circuit.hh"

namespace astrea
{

double
HwDistribution::rangeFrequency(size_t lo, size_t hi) const
{
    if (shots == 0)
        return 0.0;
    uint64_t count = 0;
    for (size_t h = lo; h <= hi && h <= hist.maxKey(); h++)
        count += hist.at(h);
    return static_cast<double>(count) / static_cast<double>(shots);
}

HwDistribution
measureHwDistribution(const ExperimentContext &ctx, uint64_t shots,
                      uint64_t seed, unsigned threads)
{
    HwDistribution dist;
    dist.shots = shots;
    std::mutex merge_mutex;
    runBlocks(blockCount(shots, kBlockShots), threads,
              [&](unsigned worker, std::atomic<uint64_t> &next_block) {
        Histogram local(64);
        ShotStream stream(seed, shots, worker);
        while (stream.nextBlock(next_block)) {
            stream.sample(ctx, stream.remaining(),
                          [&](uint64_t, std::span<const uint32_t> defects,
                              uint64_t) { local.add(defects.size()); });
        }
        std::lock_guard<std::mutex> lock(merge_mutex);
        dist.hist.merge(local);
    });
    return dist;
}

double
analyticHwProbability(uint32_t distance, double p, uint32_t h)
{
    if (h % 2 != 0)
        return 0.0;
    uint64_t big_d = syndromeVectorLength(distance, distance);
    return binomialPmf(big_d, 8.0 * p, h / 2);
}

double
analyticHwTail(uint32_t distance, double p, uint32_t h)
{
    uint64_t big_d = syndromeVectorLength(distance, distance);
    double cum = 0.0;
    for (uint32_t k = 0; 2 * k <= h; k++)
        cum += binomialPmf(big_d, 8.0 * p, k);
    return 1.0 - cum;
}

} // namespace astrea
