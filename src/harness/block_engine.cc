#include "harness/block_engine.hh"

#include <thread>

#include "common/thread_pool.hh"

namespace astrea
{

void
runBlocks(uint64_t blocks, unsigned threads,
          const std::function<void(unsigned, std::atomic<uint64_t> &)> &worker)
{
    const uint64_t workers =
        std::min<uint64_t>(threads ? threads : defaultWorkerCount(), blocks);
    std::atomic<uint64_t> next_block{0};
    // jthreads join on destruction, also when worker 0 throws.
    std::vector<std::jthread> others;
    for (unsigned w = 1; w < workers; w++)
        others.emplace_back([&worker, &next_block, w] {
            worker(w, next_block);
        });
    if (workers > 0)
        worker(0, next_block);
}

ShotStream::ShotStream(uint64_t seed, uint64_t shots, uint32_t stream)
    : seed_(seed), shots_(shots), stream_(stream),
      results_(kDecodeBatchShots)
{
    // A result slot keeps its pair buffer from batch to batch. Sized
    // for any matching of up to 32 pairs, a wide shot landing on a slot
    // that has only held narrow ones does not allocate.
    for (DecodeResult &r : results_)
        r.matchedPairs.reserve(32);
}

bool
ShotStream::nextBlock(std::atomic<uint64_t> &next_block)
{
    block_ = next_block.fetch_add(1, std::memory_order_relaxed);
    if (block_ * kBlockShots >= shots_)
        return false;
    rng_ = Rng(seed_).split(block_);
    next_ = block_ * kBlockShots;
    end_ = std::min(shots_, next_ + kBlockShots);
    return true;
}

uint64_t
ShotStream::sampleBatch(const ExperimentContext &ctx, uint64_t n)
{
    batch_.clear();
    actuals_.clear();
    for (uint64_t i = 0; i < n; i++) {
        ctx.sampler().sample(rng_, dets_, obs_);
        dets_.onesIndicesInto(scratch_.defects);
        batch_.add(scratch_.defects);
        obs_.onesIndicesInto(obsIndices_);
        uint64_t actual = 0;
        for (uint32_t o : obsIndices_)
            actual |= 1ull << o;
        actuals_.push_back(actual);
    }
    next_ += n;
    return next_ - n;
}

} // namespace astrea
