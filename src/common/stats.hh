/**
 * @file
 * Lightweight statistics helpers for the experiment harness.
 *
 * Provides a streaming mean/min/max/stddev accumulator, a fixed-bin
 * histogram, and binomial confidence intervals for logical-error-rate
 * estimates (Wilson score, which behaves well when the success count is
 * tiny — the usual situation when estimating LERs of 1e-5 and below).
 */

#ifndef ASTREA_COMMON_STATS_HH
#define ASTREA_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace astrea
{

/** Streaming scalar accumulator (Welford's algorithm for the variance). */
class RunningStats
{
  public:
    void add(double x);

    /** Merge another accumulator into this one (for per-thread stats). */
    void merge(const RunningStats &other);

    size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double variance() const;
    double stddev() const;

  private:
    size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Integer-keyed histogram with dense storage up to a cap. */
class Histogram
{
  public:
    /** Construct with bins [0, max_key]; larger keys go to an overflow. */
    explicit Histogram(size_t max_key = 64);

    void add(size_t key, uint64_t count = 1);
    void merge(const Histogram &other);
    /** Zero every count in place (keeps the bins' storage). */
    void clear();

    uint64_t total() const { return total_; }
    uint64_t at(size_t key) const;
    uint64_t overflow() const { return overflow_; }
    size_t maxKey() const { return bins_.size() - 1; }

    /** Fraction of samples with the given key. */
    double frequency(size_t key) const;

    /** Fraction of samples with key strictly greater than k. */
    double tailFrequency(size_t k) const;

    /** Largest key with a nonzero count (0 if empty). */
    size_t maxObserved() const;

  private:
    std::vector<uint64_t> bins_;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
};

/** Result of a binomial proportion estimate. */
struct BinomialEstimate
{
    uint64_t successes = 0;
    uint64_t trials = 0;
    double pointEstimate() const;
    /** Wilson score interval at ~95% confidence. */
    double lower95() const;
    double upper95() const;
};

/** Binomial(n, p) point mass at k, computed in log space for stability. */
double binomialPmf(uint64_t n, double p, uint64_t k);

/** Format a probability like "6.0e-09" for experiment reports. */
std::string formatProb(double p);

} // namespace astrea

#endif // ASTREA_COMMON_STATS_HH
