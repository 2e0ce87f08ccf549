#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace astrea
{

void
RunningStats::add(double x)
{
    n_++;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    double na = static_cast<double>(n_);
    double nb = static_cast<double>(other.n_);
    double delta = other.mean_ - mean_;
    double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
RunningStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(size_t max_key) : bins_(max_key + 1, 0) {}

void
Histogram::add(size_t key, uint64_t count)
{
    if (key < bins_.size())
        bins_[key] += count;
    else
        overflow_ += count;
    total_ += count;
}

void
Histogram::merge(const Histogram &other)
{
    if (bins_.size() < other.bins_.size())
        bins_.resize(other.bins_.size(), 0);
    for (size_t i = 0; i < other.bins_.size(); i++)
        bins_[i] += other.bins_[i];
    overflow_ += other.overflow_;
    total_ += other.total_;
}

void
Histogram::clear()
{
    std::fill(bins_.begin(), bins_.end(), 0);
    overflow_ = 0;
    total_ = 0;
}

uint64_t
Histogram::at(size_t key) const
{
    return key < bins_.size() ? bins_[key] : 0;
}

double
Histogram::frequency(size_t key) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(at(key)) / static_cast<double>(total_);
}

double
Histogram::tailFrequency(size_t k) const
{
    if (total_ == 0)
        return 0.0;
    uint64_t tail = overflow_;
    for (size_t i = k + 1; i < bins_.size(); i++)
        tail += bins_[i];
    return static_cast<double>(tail) / static_cast<double>(total_);
}

size_t
Histogram::maxObserved() const
{
    for (size_t i = bins_.size(); i-- > 0;) {
        if (bins_[i])
            return i;
    }
    return 0;
}

double
BinomialEstimate::pointEstimate() const
{
    if (trials == 0)
        return 0.0;
    return static_cast<double>(successes) / static_cast<double>(trials);
}

namespace
{

/** Wilson score bound; sign = +1 for upper, -1 for lower. */
double
wilson(uint64_t k, uint64_t n, double sign)
{
    if (n == 0)
        return 0.0;
    const double z = 1.96;
    double nf = static_cast<double>(n);
    double phat = static_cast<double>(k) / nf;
    double denom = 1.0 + z * z / nf;
    double center = phat + z * z / (2.0 * nf);
    double margin =
        z * std::sqrt(phat * (1.0 - phat) / nf + z * z / (4.0 * nf * nf));
    double v = (center + sign * margin) / denom;
    return std::clamp(v, 0.0, 1.0);
}

} // namespace

double
BinomialEstimate::lower95() const
{
    return wilson(successes, trials, -1.0);
}

double
BinomialEstimate::upper95() const
{
    return wilson(successes, trials, 1.0);
}

double
binomialPmf(uint64_t n, double p, uint64_t k)
{
    if (k > n || p < 0.0 || p > 1.0)
        return 0.0;
    if (p == 0.0)
        return k == 0 ? 1.0 : 0.0;
    if (p == 1.0)
        return k == n ? 1.0 : 0.0;
    double nf = static_cast<double>(n);
    double kf = static_cast<double>(k);
    double log_pmf = std::lgamma(nf + 1.0) - std::lgamma(kf + 1.0) -
                     std::lgamma(nf - kf + 1.0) + kf * std::log(p) +
                     (nf - kf) * std::log1p(-p);
    return std::exp(log_pmf);
}

std::string
formatProb(double p)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2e", p);
    return std::string(buf);
}

} // namespace astrea
