/**
 * @file
 * Ring-of-sub-window aggregation for live-service metrics.
 *
 * Since-process-start counters answer "how much, ever"; a live decode
 * service needs "how much, lately" — request rates, deadline-miss
 * fractions and latency percentiles over the last N seconds. These
 * classes keep a ring of sub-window slots keyed by a caller-supplied
 * monotonic tick (the decode service uses seconds-since-start divided
 * by the sub-window length; tests drive the tick explicitly). A slot
 * is lazily recycled the first time a writer touches it with a newer
 * tick, so there is no maintenance thread, and reads simply sum the
 * slots whose tick falls inside the queried window.
 *
 * Writers are lock-free. Recycling parks the slot's tick on a
 * mid-recycle marker, zeroes the fields, then publishes the new tick
 * with release ordering; readers acquire-load the tick, so a snapshot
 * landing exactly on a sub-window boundary either skips the recycling
 * slot or sees it freshly zeroed — never the new tick paired with the
 * previous sub-window's counts (which used to double-count the slot).
 * Writers racing a recycler can still lose a handful of samples at
 * the boundary; these windows feed monitoring gauges, not accounting,
 * and that loss is bounded by one slot rotation per window.
 * Single-threaded use — which is what the unit tests do — is exact.
 */

#ifndef ASTREA_TELEMETRY_ROLLING_WINDOW_HH
#define ASTREA_TELEMETRY_ROLLING_WINDOW_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/metrics.hh"

namespace astrea
{
namespace telemetry
{

/** Event counter aggregated over the most recent sub-windows. */
class RollingCounter
{
  public:
    /** Ring of `slots` sub-windows (the full window length). */
    explicit RollingCounter(size_t slots = 15);

    /** Count n events in the sub-window `tick`. */
    void add(uint64_t tick, uint64_t n = 1);

    /**
     * Sum over the last `last_k` sub-windows ending at `tick`
     * (inclusive of the current, possibly partial, sub-window).
     * last_k = 0 means the whole ring.
     */
    uint64_t total(uint64_t tick, size_t last_k = 0) const;

    size_t slots() const { return slots_.size(); }

  private:
    struct alignas(64) Slot
    {
        std::atomic<uint64_t> tick{kIdleTick};
        std::atomic<uint64_t> count{0};
    };

    static constexpr uint64_t kIdleTick = ~0ull;

    std::vector<Slot> slots_;
};

/**
 * Latency histogram aggregated over the most recent sub-windows, with
 * the same log2 bucket geometry as LatencyMetric so percentiles and
 * Prometheus `le` edges match the since-start histograms.
 */
class RollingLatency
{
  public:
    explicit RollingLatency(size_t slots = 15);

    void record(uint64_t tick, double ns);

    /**
     * Add one sample to a caller-built LatencyBuckets, rounded the way
     * record() rounds it. A writer that has many samples for one
     * sub-window collects them this way and publishes them with
     * merge().
     */
    static void addSample(LatencyBuckets &b, double ns);

    /**
     * Record every sample of `b` in the sub-window `tick`: one atomic
     * add per non-empty bin and one min and one max update, leaving
     * the slot as record() of each sample would.
     */
    void merge(uint64_t tick, const LatencyBuckets &b);

    /** Samples in the last `last_k` sub-windows (0 = whole ring). */
    uint64_t count(uint64_t tick, size_t last_k = 0) const;

    /** Percentile over the last `last_k` sub-windows (0 = whole ring). */
    double percentileNs(uint64_t tick, double pct,
                        size_t last_k = 0) const;

    /** Merged bucket counts (Prometheus exposition of the window). */
    LatencyBuckets buckets(uint64_t tick, size_t last_k = 0) const;

    size_t slots() const { return slots_.size(); }

  private:
    struct alignas(64) Slot
    {
        std::atomic<uint64_t> tick{kIdleTick};
        std::array<std::atomic<uint64_t>, kLatencyBuckets> bins{};
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> sumNs{0};
        std::atomic<uint64_t> maxNs{0};
        std::atomic<uint64_t> minNs{UINT64_MAX};
    };

    static constexpr uint64_t kIdleTick = ~0ull;

    /** True if the slot's tick lies in (tick - k, tick]. */
    static bool inWindow(uint64_t slot_tick, uint64_t tick, size_t k);

    /** Sub-window tick's slot, recycled if it held an older tick. */
    Slot &slotFor(uint64_t tick);
    /** Lower the slot's min to min_ns and raise its max to max_ns. */
    static void widen(Slot &s, uint64_t min_ns, uint64_t max_ns);

    std::vector<Slot> slots_;
};

} // namespace telemetry
} // namespace astrea

#endif // ASTREA_TELEMETRY_ROLLING_WINDOW_HH
