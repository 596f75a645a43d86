/** @file Unit tests for the statistics accumulators. */
#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"

namespace noc {
namespace {

TEST(RunningStatTest, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, MeanAndVariance)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12); // unbiased
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, MergeEqualsSequential)
{
    RunningStat a;
    RunningStat b;
    RunningStat all;
    for (int i = 0; i < 100; ++i) {
        double x = i * 0.37;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmpty)
{
    RunningStat a;
    a.add(3.0);
    RunningStat empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(RunningStatTest, ResetClears)
{
    RunningStat s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(RatioStatTest, Ratio)
{
    RatioStat r;
    EXPECT_DOUBLE_EQ(r.ratio(), 0.0);
    r.hit();
    r.miss();
    r.miss();
    r.miss();
    EXPECT_DOUBLE_EQ(r.ratio(), 0.25);
    EXPECT_EQ(r.hits(), 1u);
    EXPECT_EQ(r.trials(), 4u);
    r.addHits(3, 4);
    EXPECT_DOUBLE_EQ(r.ratio(), 0.5);
    r.reset();
    EXPECT_EQ(r.trials(), 0u);
}

TEST(HistogramTest, BinningAndOverflow)
{
    Histogram h(10.0, 5);
    h.add(0.0);
    h.add(9.99);
    h.add(10.0);
    h.add(49.9);
    h.add(1000.0); // overflow bin
    h.add(-3.0);   // clamps to bin 0
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.bin(0), 3u);
    EXPECT_EQ(h.bin(1), 1u);
    EXPECT_EQ(h.bin(4), 1u);
    EXPECT_EQ(h.bin(5), 1u); // the overflow bin
}

TEST(HistogramTest, PercentileMonotone)
{
    Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i));
    double p50 = h.percentile(0.5);
    double p90 = h.percentile(0.9);
    double p99 = h.percentile(0.99);
    EXPECT_LT(p50, p90);
    EXPECT_LT(p90, p99);
    EXPECT_NEAR(p50, 50.0, 2.0);
    EXPECT_NEAR(p99, 99.0, 2.0);
}

TEST(HistogramTest, EmptyPercentileIsZero)
{
    Histogram h(1.0, 10);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

/**
 * The eager reference: every configured bin held from construction,
 * binned and walked exactly as Histogram defines them.
 */
struct EagerHistogram {
    double width;
    std::vector<std::uint64_t> bins;
    std::uint64_t total = 0;

    EagerHistogram(double binWidth, int numBins)
        : width(binWidth), bins(static_cast<std::size_t>(numBins) + 1, 0)
    {
    }

    void
    add(double x)
    {
        const int i = x < 0 ? 0 : static_cast<int>(x / width);
        ++bins[std::min(static_cast<std::size_t>(i), bins.size() - 1)];
        ++total;
    }

    void
    merge(const EagerHistogram &o)
    {
        for (std::size_t i = 0; i < bins.size(); ++i)
            bins[i] += o.bins[i];
        total += o.total;
    }

    double
    percentile(double q) const
    {
        if (total == 0)
            return 0.0;
        q = std::clamp(q, 0.0, 1.0);
        double target = q * static_cast<double>(total);
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < bins.size(); ++i) {
            std::uint64_t prev = cum;
            cum += bins[i];
            if (static_cast<double>(cum) >= target) {
                const double inBin =
                    bins[i] ? (target - static_cast<double>(prev)) /
                                  static_cast<double>(bins[i])
                            : 0.0;
                return (static_cast<double>(i) + inBin) * width;
            }
        }
        return static_cast<double>(bins.size()) * width;
    }
};

/** Bins, percentiles (bit for bit) and storage of @p h against @p ref. */
void
expectMatchesEager(const Histogram &h, const EagerHistogram &ref)
{
    ASSERT_EQ(h.numBins(), static_cast<int>(ref.bins.size()));
    EXPECT_EQ(h.total(), ref.total);
    std::size_t highest = 0;
    for (int i = 0; i < h.numBins(); ++i) {
        EXPECT_EQ(h.bin(i), ref.bins[static_cast<std::size_t>(i)])
            << "bin " << i;
        if (ref.bins[static_cast<std::size_t>(i)])
            highest = static_cast<std::size_t>(i) + 1;
    }
    // Storage reaches the highest non-empty bin and no further.
    EXPECT_EQ(h.storedBins(), highest);
    for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(h.percentile(q)),
                  std::bit_cast<std::uint64_t>(ref.percentile(q)))
            << "q=" << q << ": " << h.percentile(q) << " vs "
            << ref.percentile(q);
    }
}

TEST(HistogramTest, StorageIsEmptyUntilFirstSample)
{
    Histogram h(2.0, 1024);
    EXPECT_EQ(h.numBins(), 1025); // the configured geometry
    EXPECT_EQ(h.storedBins(), 0u);
    EXPECT_EQ(h.bin(1024), 0u);
    h.add(7.0);
    EXPECT_EQ(h.numBins(), 1025);
    EXPECT_EQ(h.storedBins(), 4u); // bins 0..3
    h.reset();
    EXPECT_EQ(h.storedBins(), 0u);
    EXPECT_EQ(h.total(), 0u);
}

TEST(HistogramTest, GrowOnDemandMatchesEagerReference)
{
    Rng rng(0x5EED);
    for (int trial = 0; trial < 200; ++trial) {
        // Ranges from a few bins to past the overflow bin, so runs
        // clamp into the top bin as well as grow below it.
        const double span = static_cast<double>(4 << rng.nextRange(12));
        const int n = 1 + static_cast<int>(rng.nextRange(400));
        Histogram h(2.0, 1024);
        EagerHistogram ref(2.0, 1024);
        for (int i = 0; i < n; ++i) {
            double x = rng.nextDouble() * span - 1.0; // some below zero
            h.add(x);
            ref.add(x);
        }
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectMatchesEager(h, ref);
    }
}

TEST(HistogramTest, OverflowClampsIntoTheTopBin)
{
    Histogram h(10.0, 5);
    EagerHistogram ref(10.0, 5);
    for (double x : {1e9, 55.0, 50.0, 49.9, 3.0}) {
        h.add(x);
        ref.add(x);
    }
    EXPECT_EQ(h.bin(5), 3u); // 1e9, 55 and 50 share the overflow bin
    EXPECT_EQ(h.storedBins(), 6u);
    expectMatchesEager(h, ref);
}

TEST(HistogramTest, MergeAcrossGrownSizesInBothOrders)
{
    Rng rng(0xB0B);
    for (int trial = 0; trial < 100; ++trial) {
        Histogram small(2.0, 1024), large(2.0, 1024);
        EagerHistogram refSmall(2.0, 1024), refLarge(2.0, 1024);
        const double smallSpan = 1.0 + rng.nextRange(60);
        const double largeSpan = 100.0 + rng.nextRange(3000);
        for (int i = 0; i < 50; ++i) {
            double a = rng.nextDouble() * smallSpan;
            double b = rng.nextDouble() * largeSpan;
            small.add(a);
            refSmall.add(a);
            large.add(b);
            refLarge.add(b);
        }
        EagerHistogram refBoth = refSmall;
        refBoth.merge(refLarge);
        SCOPED_TRACE("trial " + std::to_string(trial));

        Histogram grown = small; // the smaller one grows to the larger
        grown.merge(large);
        expectMatchesEager(grown, refBoth);
        Histogram kept = large; // the larger one keeps its storage
        kept.merge(small);
        expectMatchesEager(kept, refBoth);
        Histogram empty(2.0, 1024); // an empty side adds nothing
        kept.merge(empty);
        empty.merge(small);
        expectMatchesEager(kept, refBoth);
        expectMatchesEager(empty, refSmall);
    }
}

} // namespace
} // namespace noc
