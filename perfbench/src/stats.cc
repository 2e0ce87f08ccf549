#include "stats.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench
{

uint64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t
threadCpuNs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

ProcessCpu
processCpu()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ns = [](const timeval &tv) {
        return static_cast<uint64_t>(tv.tv_sec) * 1000000000ull +
               static_cast<uint64_t>(tv.tv_usec) * 1000ull;
    };
    return {ns(ru.ru_utime), ns(ru.ru_stime)};
}

HostCpu
hostCpu()
{
    HostCpu h;
    FILE *f = std::fopen("/proc/stat", "r");
    if (f == nullptr)
        return h;
    // "cpu  user nice system idle iowait irq softirq steal guest ..."
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
        for (unsigned long long x : v)
            h.totalTicks += x;
        h.stealTicks = v[7];
    }
    std::fclose(f);
    return h;
}

double
stealFrac(const HostCpu &a, const HostCpu &b)
{
    const uint64_t total = b.totalTicks - a.totalTicks;
    return total == 0 ? 0.0
                      : static_cast<double>(b.stealTicks - a.stealTicks) /
                            static_cast<double>(total);
}

double
peakRssMb()
{
    FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double mb = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            unsigned long long kb = 0;
            std::sscanf(line + 6, "%llu", &kb);
            mb = static_cast<double>(kb) / 1024.0;
            break;
        }
    }
    std::fclose(f);
    return mb;
}

size_t
LogHistogram::bucketOf(uint64_t v)
{
    if (v < kSub)
        return static_cast<size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(v));
    if (msb > kMaxMsb)
        return kBuckets - 1;
    const unsigned shift = msb - kSubBits;
    return static_cast<size_t>(shift + 1) * kSub +
           static_cast<size_t>((v >> shift) - kSub);
}

uint64_t
LogHistogram::bucketLower(size_t idx)
{
    if (idx < kSub)
        return idx;
    const size_t shift = idx / kSub - 1;
    return (kSub + idx % kSub) << shift;
}

uint64_t
LogHistogram::bucketWidth(size_t idx)
{
    return idx < kSub ? 1 : 1ull << (idx / kSub - 1);
}

void
LogHistogram::record(uint64_t v)
{
    counts_[bucketOf(v)]++;
    total_++;
    max_ = std::max(max_, v);
}

double
LogHistogram::percentile(double q) const
{
    if (total_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank among the samples, 0-based and fractional; a bucket holding
    // c samples spreads them evenly over its width.
    const double rank = q * static_cast<double>(total_ - 1);
    uint64_t before = 0;
    for (size_t i = 0; i < kBuckets; i++) {
        const uint64_t c = counts_[i];
        if (c == 0)
            continue;
        if (rank < static_cast<double>(before + c)) {
            const double frac =
                (rank - static_cast<double>(before) + 0.5) /
                static_cast<double>(c);
            return static_cast<double>(bucketLower(i)) +
                   frac * static_cast<double>(bucketWidth(i));
        }
        before += c;
    }
    return static_cast<double>(max_);
}

namespace
{

/** Quantile of an already sorted, non-empty sample. */
double
sortedQuantile(const std::vector<double> &values, double q)
{
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

} // namespace

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return sortedQuantile(values, q);
}

} // namespace perfbench
