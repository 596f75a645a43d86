/**
 * @file
 * Log-bucketed latency histogram (HdrHistogram-style).
 *
 * Values 0..31 map to exact unit buckets; above that, each power-of-two
 * octave is split into 32 linear sub-buckets, bounding the relative
 * quantisation error at 1/32 (~3.1%) while keeping the whole table a
 * few hundred counters. Values beyond the configured maximum are
 * clamped into the top bucket (and counted, so overflow is visible);
 * the exact maximum and sum are tracked separately.
 *
 * The geometry covers the configured maximum, but storage holds only
 * the buckets up to the highest one recorded or merged (growing
 * geometrically); the rest read as zero. A histogram nothing was
 * recorded into owns no bucket storage at all.
 *
 * Mergeable: two histograms with the same geometry add bucket-wise,
 * which is what lets SweepRunner fold per-point recorders into one
 * aggregate without losing percentile fidelity.
 */
#ifndef ROCOSIM_OBS_HDR_HISTOGRAM_H_
#define ROCOSIM_OBS_HDR_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace noc::obs {

class HdrHistogram
{
  public:
    /** Sub-bucket resolution: 2^5 linear steps per octave. */
    static constexpr int kSubBits = 5;
    static constexpr std::uint64_t kSubCount = 1ull << kSubBits;
    /** Default trackable range (cycles); plenty for any mesh run. */
    static constexpr std::uint64_t kDefaultMax = 1ull << 20;

    explicit HdrHistogram(std::uint64_t maxValue = kDefaultMax);

    /** Records one value (clamped into the top bucket past the max). */
    void record(std::uint64_t v);

    /** Adds @p other bucket-wise; geometries must match. */
    void merge(const HdrHistogram &other);

    /**
     * Value at quantile @p q in [0, 1]: the representative value of
     * the bucket holding the ceil(q * count)-th smallest recording
     * (bucket midpoint; exact for the unit-width buckets). Zero when
     * empty.
     */
    double percentile(double q) const;

    std::uint64_t count() const { return count_; }
    std::uint64_t overflow() const { return overflow_; }
    double mean() const;
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }

    // --- bucket geometry (exposed for the unit tests) ----------------

    /** Index of the bucket that records @p v (after clamping). */
    std::size_t bucketIndex(std::uint64_t v) const;
    /** Smallest value mapping to bucket @p i. */
    static std::uint64_t bucketLow(std::size_t i);
    /** Number of distinct values sharing bucket @p i. */
    static std::uint64_t bucketWidth(std::size_t i);
    /** Buckets the configured range spans. */
    std::size_t bucketCount() const { return bucketCount_; }
    /** Buckets held in storage: through the highest recorded or merged. */
    std::size_t storedBuckets() const { return counts_.size(); }

  private:
    /** Extends storage to @p n buckets (n <= bucketCount_). */
    void grow(std::size_t n);

    std::uint64_t maxValue_;
    std::size_t bucketCount_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ull;
    std::uint64_t max_ = 0;
};

} // namespace noc::obs

#endif // ROCOSIM_OBS_HDR_HISTOGRAM_H_
