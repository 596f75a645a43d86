#include "obs/hdr_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.h"

namespace noc::obs {

HdrHistogram::HdrHistogram(std::uint64_t maxValue)
    : maxValue_(maxValue), bucketCount_(bucketIndex(maxValue) + 1)
{
    NOC_ASSERT(maxValue >= kSubCount, "histogram range below one octave");
}

void
HdrHistogram::grow(std::size_t n)
{
    if (n > counts_.capacity())
        counts_.reserve(std::min(std::max(n, 2 * counts_.capacity()),
                                 bucketCount_));
    counts_.resize(n, 0);
}

std::size_t
HdrHistogram::bucketIndex(std::uint64_t v) const
{
    if (v > maxValue_)
        v = maxValue_;
    if (v < kSubCount)
        return static_cast<std::size_t>(v);
    // Shift v down until it fits in [kSubCount, 2*kSubCount): each
    // shift is one octave, each octave owns kSubCount linear buckets.
    int shift = std::bit_width(v) - (kSubBits + 1);
    std::uint64_t base = static_cast<std::uint64_t>(shift + 1) * kSubCount;
    std::uint64_t offset = (v >> shift) - kSubCount;
    return static_cast<std::size_t>(base + offset);
}

std::uint64_t
HdrHistogram::bucketLow(std::size_t i)
{
    if (i < kSubCount)
        return i;
    int shift = static_cast<int>(i / kSubCount) - 1;
    std::uint64_t offset = i % kSubCount;
    return (kSubCount + offset) << shift;
}

std::uint64_t
HdrHistogram::bucketWidth(std::size_t i)
{
    if (i < kSubCount)
        return 1;
    return 1ull << (static_cast<int>(i / kSubCount) - 1);
}

void
HdrHistogram::record(std::uint64_t v)
{
    if (v > maxValue_)
        ++overflow_;
    const std::size_t i = bucketIndex(v);
    if (i >= counts_.size())
        grow(i + 1);
    ++counts_[i];
    ++count_;
    sum_ += v;
    if (v < min_)
        min_ = v;
    if (v > max_)
        max_ = v;
}

void
HdrHistogram::merge(const HdrHistogram &other)
{
    NOC_ASSERT(maxValue_ == other.maxValue_,
               "merging histograms of different geometry");
    if (other.counts_.size() > counts_.size())
        grow(other.counts_.size());
    for (std::size_t i = 0; i < other.counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    count_ += other.count_;
    overflow_ += other.overflow_;
    sum_ += other.sum_;
    if (other.min_ < min_)
        min_ = other.min_;
    if (other.max_ > max_)
        max_ = other.max_;
}

double
HdrHistogram::percentile(double q) const
{
    if (count_ == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (target == 0)
        target = 1;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        cum += counts_[i];
        if (cum >= target) {
            return static_cast<double>(bucketLow(i)) +
                   static_cast<double>(bucketWidth(i) - 1) / 2.0;
        }
    }
    return static_cast<double>(max_);
}

double
HdrHistogram::mean() const
{
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
}

} // namespace noc::obs
