/**
 * @file
 * The program's one parallel loop, and the worker count it defaults to.
 *
 * runBlocks() runs a worker on each of a few threads, worker 0 on the
 * caller's thread, and the workers claim the loop's blocks one at a
 * time from one atomic counter. The caller starts on block 0 at once;
 * a helper that starts late takes only the blocks left, so a short
 * loop does not wait on thread start-up and an uneven one balances
 * itself. A block is whatever the loop makes it: the harness's
 * sampled loops claim fixed blocks of shots (harness/block_engine.hh),
 * and the GWT build claims rows (graph/weight_table.hh). Either way,
 * what a block computes must not depend on the worker that runs it.
 */

#ifndef ASTREA_COMMON_THREAD_POOL_HH
#define ASTREA_COMMON_THREAD_POOL_HH

#include <atomic>
#include <cstdint>
#include <functional>

namespace astrea
{

/**
 * Run worker(index, next_block) once on each of `threads` workers (0 =
 * defaultWorkerCount(), at most one per block), worker 0 on the
 * caller's thread; returns when all have returned. Each claims blocks
 * [0, blocks) in order by next_block.fetch_add(1) until it passes the
 * last. Runs nothing when blocks is 0.
 */
void runBlocks(
    uint64_t blocks, unsigned threads,
    const std::function<void(unsigned, std::atomic<uint64_t> &)> &worker);

/**
 * Number of workers to use: the ASTREA_THREADS environment variable if
 * set, otherwise the hardware concurrency (at least 1).
 */
unsigned defaultWorkerCount();

} // namespace astrea

#endif // ASTREA_COMMON_THREAD_POOL_HH
