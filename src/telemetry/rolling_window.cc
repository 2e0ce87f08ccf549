#include "telemetry/rolling_window.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace astrea
{
namespace telemetry
{

namespace
{

/**
 * Mid-recycle marker parked in a slot's tick while its fields are
 * being zeroed. Like kIdleTick it fails `slot_tick <= tick` for any
 * realistic tick, so readers exclude a slot that is mid-recycle
 * instead of attributing the previous sub-window's counts to the new
 * one.
 */
constexpr uint64_t kRecycleTick = ~0ull - 1;

/** True if slot_tick lies in the window (tick - k, tick]. */
bool
tickInWindow(uint64_t slot_tick, uint64_t tick, size_t k)
{
    // kIdleTick (~0) and kRecycleTick (~0 - 1) fail slot_tick <= tick
    // for any realistic tick.
    return slot_tick <= tick && slot_tick + k > tick;
}

/** A latency sample as the histograms keep it: whole ns, >= 0. */
uint64_t
sampleNs(double ns)
{
    if (ns < 0.0 || !std::isfinite(ns))
        ns = 0.0;
    return static_cast<uint64_t>(std::llround(ns));
}

} // namespace

RollingCounter::RollingCounter(size_t slots)
    : slots_(std::max<size_t>(1, slots))
{
}

void
RollingCounter::add(uint64_t tick, uint64_t n)
{
    Slot &s = slots_[tick % slots_.size()];
    uint64_t cur = s.tick.load(std::memory_order_acquire);
    if (cur != tick && cur != kRecycleTick) {
        // First writer of a new sub-window recycles the slot: park
        // the tick on the mid-recycle marker (readers skip the slot),
        // zero, then publish the new tick with release ordering. A
        // snapshot landing exactly on the boundary therefore never
        // sees the new tick paired with the previous sub-window's
        // count (which double-counted the recycling slot). Writers
        // racing the recycler can still lose a sample (see file
        // comment).
        if (s.tick.compare_exchange_strong(cur, kRecycleTick,
                                           std::memory_order_acq_rel)) {
            s.count.store(0, std::memory_order_relaxed);
            s.tick.store(tick, std::memory_order_release);
        }
    }
    s.count.fetch_add(n, std::memory_order_relaxed);
}

uint64_t
RollingCounter::total(uint64_t tick, size_t last_k) const
{
    size_t k = last_k == 0 ? slots_.size()
                           : std::min(last_k, slots_.size());
    uint64_t sum = 0;
    for (const Slot &s : slots_) {
        // Acquire pairs with the recycler's release-store: a slot
        // seen with a fresh tick is seen with its fields zeroed.
        if (tickInWindow(s.tick.load(std::memory_order_acquire), tick,
                         k))
            sum += s.count.load(std::memory_order_relaxed);
    }
    return sum;
}

RollingLatency::RollingLatency(size_t slots)
    : slots_(std::max<size_t>(1, slots))
{
}

bool
RollingLatency::inWindow(uint64_t slot_tick, uint64_t tick, size_t k)
{
    return tickInWindow(slot_tick, tick, k);
}

RollingLatency::Slot &
RollingLatency::slotFor(uint64_t tick)
{
    Slot &s = slots_[tick % slots_.size()];
    uint64_t cur = s.tick.load(std::memory_order_acquire);
    if (cur != tick && cur != kRecycleTick) {
        // Same recycle protocol as RollingCounter::add: mark, zero,
        // publish — so a boundary snapshot never merges the previous
        // sub-window's histogram into the new tick.
        if (s.tick.compare_exchange_strong(cur, kRecycleTick,
                                           std::memory_order_acq_rel)) {
            for (auto &b : s.bins)
                b.store(0, std::memory_order_relaxed);
            s.count.store(0, std::memory_order_relaxed);
            s.sumNs.store(0, std::memory_order_relaxed);
            s.maxNs.store(0, std::memory_order_relaxed);
            s.minNs.store(UINT64_MAX, std::memory_order_relaxed);
            s.tick.store(tick, std::memory_order_release);
        }
    }
    return s;
}

void
RollingLatency::widen(Slot &s, uint64_t min_ns, uint64_t max_ns)
{
    uint64_t cur_min = s.minNs.load(std::memory_order_relaxed);
    while (min_ns < cur_min &&
           !s.minNs.compare_exchange_weak(cur_min, min_ns,
                                          std::memory_order_relaxed)) {
    }
    uint64_t cur_max = s.maxNs.load(std::memory_order_relaxed);
    while (max_ns > cur_max &&
           !s.maxNs.compare_exchange_weak(cur_max, max_ns,
                                          std::memory_order_relaxed)) {
    }
}

void
RollingLatency::record(uint64_t tick, double ns)
{
    const uint64_t t = sampleNs(ns);
    Slot &s = slotFor(tick);
    s.bins[latencyBucketIndex(t)].fetch_add(1,
                                            std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sumNs.fetch_add(t, std::memory_order_relaxed);
    widen(s, t, t);
}

void
RollingLatency::addSample(LatencyBuckets &b, double ns)
{
    const uint64_t t = sampleNs(ns);
    b.bins[latencyBucketIndex(t)]++;
    b.minNs = b.count == 0 ? t : std::min(b.minNs, t);
    b.maxNs = std::max(b.maxNs, t);
    b.count++;
    b.sumNs += t;
}

void
RollingLatency::merge(uint64_t tick, const LatencyBuckets &b)
{
    if (b.count == 0)
        return;
    Slot &s = slotFor(tick);
    for (size_t i = 0; i < kLatencyBuckets; i++) {
        if (b.bins[i] != 0)
            s.bins[i].fetch_add(b.bins[i], std::memory_order_relaxed);
    }
    s.count.fetch_add(b.count, std::memory_order_relaxed);
    s.sumNs.fetch_add(b.sumNs, std::memory_order_relaxed);
    widen(s, b.minNs, b.maxNs);
}

LatencyBuckets
RollingLatency::buckets(uint64_t tick, size_t last_k) const
{
    size_t k = last_k == 0 ? slots_.size()
                           : std::min(last_k, slots_.size());
    LatencyBuckets out;
    uint64_t min_ns = UINT64_MAX;
    for (const Slot &s : slots_) {
        if (!inWindow(s.tick.load(std::memory_order_acquire), tick, k))
            continue;
        for (size_t b = 0; b < kLatencyBuckets; b++)
            out.bins[b] += s.bins[b].load(std::memory_order_relaxed);
        out.count += s.count.load(std::memory_order_relaxed);
        out.sumNs += s.sumNs.load(std::memory_order_relaxed);
        min_ns = std::min(min_ns,
                          s.minNs.load(std::memory_order_relaxed));
        out.maxNs = std::max(out.maxNs,
                             s.maxNs.load(std::memory_order_relaxed));
    }
    out.minNs = out.count == 0 ? 0 : min_ns;
    if (out.count == 0)
        out.maxNs = 0;
    return out;
}

uint64_t
RollingLatency::count(uint64_t tick, size_t last_k) const
{
    size_t k = last_k == 0 ? slots_.size()
                           : std::min(last_k, slots_.size());
    uint64_t sum = 0;
    for (const Slot &s : slots_) {
        if (inWindow(s.tick.load(std::memory_order_acquire), tick, k))
            sum += s.count.load(std::memory_order_relaxed);
    }
    return sum;
}

double
RollingLatency::percentileNs(uint64_t tick, double pct,
                             size_t last_k) const
{
    LatencyBuckets b = buckets(tick, last_k);
    return percentileFromLatencyBins(b.bins.data(), kLatencyBuckets,
                                     b.count, b.minNs, b.maxNs, pct);
}

} // namespace telemetry
} // namespace astrea
