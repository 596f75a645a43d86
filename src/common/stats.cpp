#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace noc {

void
RunningStat::add(double x)
{
    ++count_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    double n1 = static_cast<double>(count_);
    double n2 = static_cast<double>(other.count_);
    double delta = other.mean_ - mean_;
    double n = n1 + n2;
    mean_ += delta * n2 / n;
    m2_ += other.m2_ + delta * delta * n1 * n2 / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
RatioStat::ratio() const
{
    if (trials_ == 0)
        return 0.0;
    return static_cast<double>(hits_) / static_cast<double>(trials_);
}

Histogram::Histogram(double binWidth, int numBins)
    : binWidth_(binWidth), numBins_(numBins + 1)
{
    NOC_ASSERT(binWidth > 0 && numBins > 0, "invalid histogram shape");
}

void
Histogram::grow(std::size_t n)
{
    if (n > bins_.capacity()) {
        bins_.reserve(std::min(std::max(n, 2 * bins_.capacity()),
                               static_cast<std::size_t>(numBins_)));
    }
    bins_.resize(n, 0);
}

void
Histogram::add(double x)
{
    int idx = x < 0 ? 0 : static_cast<int>(x / binWidth_);
    if (idx >= numBins_)
        idx = numBins_ - 1; // overflow bin
    if (static_cast<std::size_t>(idx) >= bins_.size())
        grow(static_cast<std::size_t>(idx) + 1);
    ++bins_[idx];
    ++total_;
}

void
Histogram::merge(const Histogram &other)
{
    NOC_ASSERT(other.numBins_ == numBins_ && other.binWidth_ == binWidth_,
               "histogram shape mismatch");
    if (other.bins_.size() > bins_.size())
        grow(other.bins_.size());
    for (size_t i = 0; i < other.bins_.size(); ++i)
        bins_[i] += other.bins_[i];
    total_ += other.total_;
}

void
Histogram::reset()
{
    bins_.clear();
    total_ = 0;
}

double
Histogram::percentile(double q) const
{
    if (total_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double target = q * static_cast<double>(total_);
    std::uint64_t cum = 0;
    for (size_t i = 0; i < bins_.size(); ++i) {
        std::uint64_t prev = cum;
        cum += bins_[i];
        if (static_cast<double>(cum) >= target) {
            double inBin = bins_[i] ? (target - static_cast<double>(prev)) /
                                          static_cast<double>(bins_[i])
                                    : 0.0;
            return (static_cast<double>(i) + inBin) * binWidth_;
        }
    }
    return static_cast<double>(numBins_) * binWidth_;
}

} // namespace noc
