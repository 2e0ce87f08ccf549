#include "common/thread_pool.hh"

#include <algorithm>
#include <thread>
#include <vector>

#include "common/env.hh"

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

unsigned
defaultWorkerCount()
{
    uint64_t v = env::getUint("ASTREA_THREADS", 0, 1);
    if (v > 0)
        return static_cast<unsigned>(v);
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace astrea
