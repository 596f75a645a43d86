/**
 * @file
 * Lightweight statistics accumulators used throughout the simulator.
 */
#ifndef ROCOSIM_COMMON_STATS_H_
#define ROCOSIM_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace noc {

/**
 * Streaming mean/variance/min/max accumulator (Welford's algorithm).
 * Constant memory regardless of sample count.
 */
class RunningStat
{
  public:
    /** Adds one sample. */
    void add(double x);
    /** Merges another accumulator into this one. */
    void merge(const RunningStat &other);
    /** Clears all samples. */
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    /** Unbiased sample variance; 0 for fewer than two samples. */
    double variance() const;
    double stddev() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return mean_ * static_cast<double>(count_); }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Ratio counter for event probabilities, e.g. SA contention
 * (Figure 3: losing requests / total requests).
 */
class RatioStat
{
  public:
    void hit() { ++hits_; ++trials_; }
    void miss() { ++trials_; }
    void addHits(std::uint64_t h, std::uint64_t t) { hits_ += h; trials_ += t; }
    void reset() { hits_ = trials_ = 0; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t trials() const { return trials_; }
    /** hits/trials, 0 when no trials recorded. */
    double ratio() const;

  private:
    std::uint64_t hits_ = 0;
    std::uint64_t trials_ = 0;
};

/**
 * Fixed-bin histogram for latency distributions.
 *
 * The geometry is fixed at construction, but storage is not: only the
 * bins up to the highest one recorded or merged are held (growing
 * geometrically), the rest read as zero. A run that records latencies
 * of tens of cycles therefore allocates, merges and scans a few dozen
 * bins, not the configured range.
 */
class Histogram
{
  public:
    /** @p binWidth cycles per bin, @p numBins bins plus one overflow bin. */
    Histogram(double binWidth, int numBins);

    void add(double x);
    void reset();
    /** Adds another histogram's bins; shapes must match. */
    void merge(const Histogram &other);

    std::uint64_t total() const { return total_; }
    std::uint64_t bin(int i) const
    {
        return static_cast<std::size_t>(i) < bins_.size() ? bins_[i] : 0;
    }
    /** Configured bins, the overflow bin included. */
    int numBins() const { return numBins_; }
    /** Bins in storage: through the highest recorded or merged. */
    std::size_t storedBins() const { return bins_.size(); }
    double binWidth() const { return binWidth_; }
    /** Value below which fraction @p q of samples fall (linear interp). */
    double percentile(double q) const;

  private:
    /** Extends storage to @p n bins (n <= numBins_). */
    void grow(std::size_t n);

    double binWidth_;
    int numBins_;
    std::vector<std::uint64_t> bins_;
    std::uint64_t total_ = 0;
};

} // namespace noc

#endif // ROCOSIM_COMMON_STATS_H_
