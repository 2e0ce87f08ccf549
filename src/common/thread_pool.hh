/**
 * @file
 * Minimal fork-join helper for Monte-Carlo sharding, plus a small
 * persistent task pool.
 *
 * parallelFor splits a loop of equal-cost items (the GWT build's rows)
 * into one contiguous chunk per thread. A full work-stealing pool
 * would be overkill: every parallel region here is a single
 * embarrassingly-parallel loop. The harness's sampled loops claim
 * fixed blocks of shots instead (harness/block_engine.hh), so their
 * results do not depend on the thread count.
 *
 * ThreadPool serves the opposite shape — long-lived workers fed an
 * unbounded stream of small tasks (e.g. deferred telemetry work) —
 * with a deterministic shutdown contract: every task enqueue()
 * accepted runs to completion before the destructor returns, and once
 * shutdown begins enqueue() returns false instead of silently
 * dropping (or hanging on) the task.
 */

#ifndef ASTREA_COMMON_THREAD_POOL_HH
#define ASTREA_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace astrea
{

/**
 * Run body(worker_index, begin, end) on num_workers threads, partitioning
 * [0, total) into contiguous chunks. Runs inline when num_workers <= 1.
 */
void parallelFor(uint64_t total, unsigned num_workers,
                 const std::function<void(unsigned, uint64_t, uint64_t)>
                     &body);

/**
 * Number of workers to use: the ASTREA_THREADS environment variable if
 * set, otherwise the hardware concurrency (at least 1).
 */
unsigned defaultWorkerCount();

/**
 * Fixed-size pool of long-lived workers draining a FIFO task queue.
 *
 * Shutdown ordering is deterministic:
 *  - enqueue() returns true iff the task was accepted; after
 *    shutdown() (or destruction) begins it returns false and the
 *    task object is untouched — never silently dropped after
 *    acceptance, never run on the caller's thread.
 *  - shutdown() wakes every worker (no lost-wakeup hang), lets them
 *    drain ALL already-accepted tasks, then joins. Every task for
 *    which enqueue() returned true has finished running when
 *    shutdown() / the destructor returns.
 */
class ThreadPool
{
  public:
    /** Start `workers` threads (clamped to at least 1). */
    explicit ThreadPool(unsigned workers);

    /** shutdown(): drain accepted tasks, then join. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Queue a task. False once shutdown has begun (the task will not
     * run); true means the task is guaranteed to run before
     * shutdown() returns.
     */
    bool enqueue(std::function<void()> task);

    /** Plain-function task for the allocation-free enqueueRaw(). */
    using RawTask = void (*)(void *);

    /**
     * Preallocate `slots` slots for enqueueRaw(). Call once before
     * the hot loop; shrinking below queued raw tasks is refused.
     */
    void reserveRawSlots(size_t slots);

    /**
     * Queue a function pointer + context into a preallocated slot.
     * Unlike enqueue(), this path constructs no std::function and
     * performs no heap allocation (asserted by tests/alloc_test.cc),
     * so per-shot hot paths can hand work to the pool without paying
     * the allocator. False once shutdown has begun OR when all raw
     * slots are occupied (bounded queue — the caller sheds or
     * retries); true carries the same run-before-shutdown guarantee
     * as enqueue(). Raw tasks run before std::function tasks.
     */
    bool enqueueRaw(RawTask fn, void *arg);

    /** Idempotent: drain accepted tasks, join the workers. */
    void shutdown();

    size_t workerCount() const { return workers_.size(); }

    /** Tasks accepted and finished, for tests and gauges. */
    uint64_t completedTasks() const;

  private:
    void workerLoop();

    struct RawSlot
    {
        RawTask fn = nullptr;
        void *arg = nullptr;
    };

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> tasks_;
    /** Fixed circular buffer backing enqueueRaw(). */
    std::vector<RawSlot> rawSlots_;
    size_t rawHead_ = 0;
    size_t rawCount_ = 0;
    std::vector<std::thread> workers_;
    uint64_t completed_ = 0;
    bool stopping_ = false;
};

} // namespace astrea

#endif // ASTREA_COMMON_THREAD_POOL_HH
