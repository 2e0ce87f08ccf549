/**
 * @file
 * Measurement helpers for the end-to-end benchmark: a fixed-memory
 * log-linear latency histogram, exact percentiles of small samples,
 * clocks, and process-level counters (peak RSS, CPU time).
 *
 * Everything here is sized up front so the benchmark's own memory
 * does not grow with the program's speed.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench
{

/** CLOCK_MONOTONIC in ns (the clock steady_clock and the fleet use). */
uint64_t nowNs();

/** CPU time of the calling thread, ns. */
uint64_t threadCpuNs();

/** Process CPU time split into user and system, ns. */
struct ProcessCpu
{
    uint64_t userNs = 0;
    uint64_t sysNs = 0;
};
ProcessCpu processCpu();

/** Machine-wide CPU time from /proc/stat, in clock ticks: all states,
 *  and steal (a virtual CPU was ready but the hypervisor ran something
 *  else). Both 0 if unknown. */
struct HostCpu
{
    uint64_t totalTicks = 0;
    uint64_t stealTicks = 0;
};
HostCpu hostCpu();

/** Steal share of the machine's CPU time between two samples. */
double stealFrac(const HostCpu &a, const HostCpu &b);

/** VmHWM (peak resident set) of this process in MB; 0 if unknown. */
double peakRssMb();

/**
 * Log-linear histogram of non-negative integer samples (ns). Values
 * below 128 get exact buckets; above, each power of two is split into
 * 128 equal buckets, so a bucket spans under 0.8% of its value.
 * percentile() interpolates linearly inside the bucket by rank, so
 * the result moves continuously with the data instead of snapping to
 * bucket edges.
 */
class LogHistogram
{
  public:
    static constexpr unsigned kSubBits = 7;
    static constexpr uint64_t kSub = 1ull << kSubBits;
    /** Values at or above 2^47 ns (~39 h) land in the last bucket. */
    static constexpr unsigned kMaxMsb = 47;
    static constexpr size_t kBuckets = (kMaxMsb - kSubBits + 2) * kSub;

    LogHistogram() : counts_(kBuckets, 0) {}

    void record(uint64_t v);

    uint64_t count() const { return total_; }
    uint64_t max() const { return max_; }

    /** Value at quantile q in [0, 1]; 0 when empty. */
    double percentile(double q) const;

    /** Bucket index of v and a bucket's [lower, lower + width). */
    static size_t bucketOf(uint64_t v);
    static uint64_t bucketLower(size_t idx);
    static uint64_t bucketWidth(size_t idx);

  private:
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
    uint64_t max_ = 0;
};

/**
 * Exact quantile of a sample by linear interpolation between order
 * statistics (rank q * (n - 1)); 0 for an empty sample. Takes a copy
 * because it sorts.
 */
double percentile(std::vector<double> values, double q);

/** Median of a sample (percentile 0.5). */
inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
