/**
 * @file
 * Observability subsystem unit tests: histogram bucket math at the
 * octave boundaries, ring wrap-around, deterministic sampling, the
 * zero-allocation guarantee of the disabled paths, Perfetto export
 * structure, and end-to-end capture through a real Simulator run.
 *
 * The ObsConcurrentMerge fixture runs under the tsan preset (see the
 * CI test filter): many threads folding Summaries into one aggregate
 * must race-free reproduce the serial merge bit-for-bit.
 */
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exp/sweep.h"
#include "obs/counters.h"
#include "obs/hdr_histogram.h"
#include "obs/perfetto.h"
#include "obs/recorder.h"
#include "obs/ring_buffer.h"
#include "result_print.h"
#include "sim/simulator.h"

// --- allocation counter ---------------------------------------------
// Replacing the global allocator lets the disabled-path tests prove
// "zero allocation" literally. Counting only (malloc-backed), so every
// other test in this binary is unaffected.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

// GCC pairs new/delete by allocator identity and cannot see that both
// shims sit on malloc/free; the pairing is sound.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace noc::obs {
namespace {

Flit
headFlit(std::uint64_t packetId, NodeId src = 0, NodeId dst = 1,
         Cycle createTime = 0)
{
    Flit f;
    f.packetId = packetId;
    f.type = FlitType::Head;
    f.packetLen = 1;
    f.src = src;
    f.dst = dst;
    f.createTime = createTime;
    return f;
}

Recorder::Options
tinyOptions()
{
    Recorder::Options opt;
    opt.nodes = 4;
    opt.meshWidth = 2;
    opt.meshHeight = 2;
    return opt;
}

// --- HdrHistogram ----------------------------------------------------

TEST(HdrHistogramTest, UnitBucketsBelowSubCount)
{
    HdrHistogram h;
    for (std::uint64_t v = 0; v < HdrHistogram::kSubCount; ++v) {
        EXPECT_EQ(h.bucketIndex(v), v);
        EXPECT_EQ(HdrHistogram::bucketLow(v), v);
        EXPECT_EQ(HdrHistogram::bucketWidth(v), 1u);
    }
}

TEST(HdrHistogramTest, OctaveBoundaries)
{
    HdrHistogram h;
    // 31 -> 32 crosses from the unit table into the first octave, which
    // still has unit-width sub-buckets (values exact through 63).
    EXPECT_EQ(h.bucketIndex(31), 31u);
    EXPECT_EQ(h.bucketIndex(32), 32u);
    EXPECT_EQ(h.bucketIndex(63), 63u);
    EXPECT_EQ(HdrHistogram::bucketWidth(63), 1u);
    // 64 starts the first octave with width-2 sub-buckets.
    EXPECT_EQ(h.bucketIndex(64), 64u);
    EXPECT_EQ(HdrHistogram::bucketLow(64), 64u);
    EXPECT_EQ(HdrHistogram::bucketWidth(64), 2u);
    EXPECT_EQ(h.bucketIndex(65), 64u); // shares 64's bucket
    // Every bucket's low is the previous bucket's low plus its width,
    // over the whole configured range (2^20 ends bucket 512).
    ASSERT_EQ(h.bucketCount(),
              h.bucketIndex(HdrHistogram::kDefaultMax) + 1);
    ASSERT_EQ(h.bucketCount(), 513u);
    for (std::size_t i = 1; i < h.bucketCount(); ++i)
        EXPECT_EQ(HdrHistogram::bucketLow(i),
                  HdrHistogram::bucketLow(i - 1) +
                      HdrHistogram::bucketWidth(i - 1))
            << "bucket " << i;
}

TEST(HdrHistogramTest, RelativeErrorBounded)
{
    HdrHistogram h;
    for (std::uint64_t v : {100u, 1000u, 65537u, 1000000u}) {
        std::size_t i = h.bucketIndex(v);
        std::uint64_t lo = HdrHistogram::bucketLow(i);
        std::uint64_t w = HdrHistogram::bucketWidth(i);
        EXPECT_GE(v, lo);
        EXPECT_LT(v, lo + w);
        // Sub-bucket width is bounded by lo / 32 (the 3.1% guarantee).
        EXPECT_LE(static_cast<double>(w) / static_cast<double>(lo),
                  1.0 / 32.0 + 1e-12);
    }
}

TEST(HdrHistogramTest, ClampAndOverflow)
{
    HdrHistogram h(1000);
    h.record(999);
    h.record(5000); // past the max: clamped into the top bucket
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.max(), 5000u); // exact extremes survive clamping
    EXPECT_EQ(h.min(), 999u);
    EXPECT_LE(h.percentile(1.0), 1000.0 * (1 + 1.0 / 32));
}

TEST(HdrHistogramTest, PercentilesExactInUnitRange)
{
    HdrHistogram h;
    for (std::uint64_t v = 0; v < 64; ++v)
        h.record(v);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 31.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 63.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 31.5);
}

TEST(HdrHistogramTest, EmptyIsZero)
{
    HdrHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HdrHistogramTest, MergeMatchesCombinedRecording)
{
    HdrHistogram a, b, both;
    for (std::uint64_t v = 0; v < 200; v += 2) {
        a.record(v);
        both.record(v);
    }
    for (std::uint64_t v = 1; v < 4000; v += 7) {
        b.record(v);
        both.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    EXPECT_DOUBLE_EQ(a.mean(), both.mean());
    for (double q : {0.5, 0.9, 0.99, 0.999})
        EXPECT_DOUBLE_EQ(a.percentile(q), both.percentile(q)) << q;
}

/**
 * The eager reference: every configured bucket held from construction,
 * walked exactly as HdrHistogram::percentile defines the walk. The
 * bucket geometry comes from @c geometry, which records nothing.
 */
struct EagerHdr {
    HdrHistogram geometry;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    std::uint64_t max = 0;

    explicit EagerHdr(std::uint64_t maxValue)
        : geometry(maxValue), counts(geometry.bucketCount(), 0)
    {
    }

    void
    record(std::uint64_t v)
    {
        ++counts[geometry.bucketIndex(v)];
        ++count;
        max = std::max(max, v);
    }

    void
    merge(const EagerHdr &o)
    {
        for (std::size_t i = 0; i < counts.size(); ++i)
            counts[i] += o.counts[i];
        count += o.count;
        max = std::max(max, o.max);
    }

    double
    percentile(double q) const
    {
        if (count == 0)
            return 0.0;
        q = std::clamp(q, 0.0, 1.0);
        auto target = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(count)));
        target = std::max<std::uint64_t>(target, 1);
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            cum += counts[i];
            if (cum >= target) {
                return static_cast<double>(HdrHistogram::bucketLow(i)) +
                       static_cast<double>(HdrHistogram::bucketWidth(i) -
                                           1) /
                           2.0;
            }
        }
        return static_cast<double>(max);
    }
};

/** Percentiles (bit for bit), extremes and storage of @p h vs @p ref. */
void
expectMatchesEager(const HdrHistogram &h, const EagerHdr &ref)
{
    ASSERT_EQ(h.bucketCount(), ref.counts.size());
    EXPECT_EQ(h.count(), ref.count);
    EXPECT_EQ(h.max(), ref.max);
    std::size_t highest = 0;
    for (std::size_t i = 0; i < ref.counts.size(); ++i) {
        if (ref.counts[i])
            highest = i + 1;
    }
    // Storage reaches the highest non-empty bucket and no further.
    EXPECT_EQ(h.storedBuckets(), highest);
    for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(h.percentile(q)),
                  std::bit_cast<std::uint64_t>(ref.percentile(q)))
            << "q=" << q << ": " << h.percentile(q) << " vs "
            << ref.percentile(q);
    }
}

/** A value log-uniform in [0, 2^bits): every octave equally likely. */
std::uint64_t
logUniform(Rng &rng, int bits)
{
    const std::uint64_t octave =
        rng.nextRange(static_cast<std::uint64_t>(bits));
    return rng.nextRange(std::uint64_t{2} << octave);
}

TEST(HdrHistogramTest, StorageIsEmptyUntilFirstRecord)
{
    HdrHistogram h;
    EXPECT_EQ(h.bucketCount(), 513u); // the configured geometry
    EXPECT_EQ(h.storedBuckets(), 0u);
    h.record(40); // bucket 40
    EXPECT_EQ(h.bucketCount(), 513u);
    EXPECT_EQ(h.storedBuckets(), 41u);
    HdrHistogram copy = h;
    EXPECT_EQ(copy.storedBuckets(), 41u);
}

TEST(HdrHistogramTest, GrowOnDemandMatchesEagerReference)
{
    Rng rng(0x4D52);
    for (int trial = 0; trial < 200; ++trial) {
        // A small range overflows often; the default one grows across
        // anywhere from a few to all of its octaves.
        const std::uint64_t maxValue =
            trial % 4 == 0 ? 1000 : HdrHistogram::kDefaultMax;
        const int bits = 3 + static_cast<int>(rng.nextRange(20));
        const int n = 1 + static_cast<int>(rng.nextRange(400));
        HdrHistogram h(maxValue);
        EagerHdr ref(maxValue);
        std::uint64_t over = 0;
        for (int i = 0; i < n; ++i) {
            std::uint64_t v = logUniform(rng, bits);
            h.record(v);
            ref.record(v);
            over += v > maxValue ? 1 : 0;
        }
        SCOPED_TRACE("trial " + std::to_string(trial));
        EXPECT_EQ(h.overflow(), over);
        expectMatchesEager(h, ref);
    }
}

TEST(HdrHistogramTest, OverflowClampsIntoTheTopBucket)
{
    HdrHistogram h(1000);
    EagerHdr ref(1000);
    for (std::uint64_t v : {5000u, 1000u, 999u, 12u}) {
        h.record(v);
        ref.record(v);
    }
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.storedBuckets(), h.bucketCount()); // top bucket held
    expectMatchesEager(h, ref);
}

TEST(HdrHistogramTest, MergeAcrossGrownSizesInBothOrders)
{
    Rng rng(0xFEED);
    for (int trial = 0; trial < 100; ++trial) {
        HdrHistogram small, large;
        EagerHdr refSmall(HdrHistogram::kDefaultMax);
        EagerHdr refLarge(HdrHistogram::kDefaultMax);
        const int smallBits = 2 + static_cast<int>(rng.nextRange(6));
        const int largeBits = 8 + static_cast<int>(rng.nextRange(14));
        for (int i = 0; i < 50; ++i) {
            std::uint64_t a = logUniform(rng, smallBits);
            std::uint64_t b = logUniform(rng, largeBits);
            small.record(a);
            refSmall.record(a);
            large.record(b);
            refLarge.record(b);
        }
        EagerHdr refBoth = refSmall;
        refBoth.merge(refLarge);
        SCOPED_TRACE("trial " + std::to_string(trial));

        HdrHistogram grown = small; // the smaller one grows to the larger
        grown.merge(large);
        expectMatchesEager(grown, refBoth);
        HdrHistogram kept = large; // the larger one keeps its storage
        kept.merge(small);
        expectMatchesEager(kept, refBoth);
        EXPECT_EQ(grown.min(), kept.min());
        EXPECT_DOUBLE_EQ(grown.mean(), kept.mean());
        HdrHistogram empty; // an empty side adds nothing
        kept.merge(empty);
        empty.merge(small);
        expectMatchesEager(kept, refBoth);
        expectMatchesEager(empty, refSmall);
    }
}

// --- EventRing -------------------------------------------------------

TEST(EventRingTest, WrapKeepsNewestAndCountsDrops)
{
    EventRing ring(4);
    for (std::uint64_t i = 0; i < 6; ++i) {
        ObsEvent e;
        e.packetId = i;
        ring.push(e);
    }
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.dropped(), 2u);
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring.at(i).packetId, i + 2); // oldest two overwritten
}

TEST(EventRingTest, ZeroCapacityDropsEverything)
{
    EventRing ring(0);
    ObsEvent e;
    ring.push(e);
    ring.push(e);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.dropped(), 2u);
}

// --- sampling --------------------------------------------------------

TEST(SamplingTest, DeterministicAcrossRecorders)
{
    Recorder::Options opt = tinyOptions();
    opt.sampleEvery = 4;
    Recorder a(opt), b(opt);
    int hits = 0;
    for (std::uint64_t id = 0; id < 4000; ++id) {
        EXPECT_EQ(a.sampled(id), b.sampled(id)) << id;
        hits += a.sampled(id) ? 1 : 0;
    }
    // The hash spreads ids uniformly, so ~1/4 are selected.
    EXPECT_GT(hits, 4000 / 8);
    EXPECT_LT(hits, 4000 / 2);
}

TEST(SamplingTest, EveryPacketAtRateOne)
{
    Recorder a(tinyOptions());
    for (std::uint64_t id = 0; id < 64; ++id)
        EXPECT_TRUE(a.sampled(id));
}

// --- zero-allocation guards -----------------------------------------

TEST(ZeroAllocTest, DisabledRecorderAllocatesNothing)
{
    Recorder::Options opt = tinyOptions();
    opt.enabled = false;
    Recorder rec(opt);
    Flit f = headFlit(7);
    std::uint64_t before = g_allocs.load();
    for (int i = 0; i < 10000; ++i) {
        rec.record(Stage::BufferWrite, f, 0, static_cast<Cycle>(i));
        rec.recordEndToEnd(f, static_cast<Cycle>(i));
    }
    EXPECT_EQ(g_allocs.load(), before);
}

TEST(ZeroAllocTest, UnsampledPacketsAllocateNothing)
{
    Recorder::Options opt = tinyOptions();
    opt.sampleEvery = 1u << 20; // sample (almost) nothing
    Recorder rec(opt);
    std::uint64_t id = 0;
    while (rec.sampled(id))
        ++id;
    Flit f = headFlit(id);
    std::uint64_t before = g_allocs.load();
    for (int i = 0; i < 10000; ++i)
        rec.record(Stage::BufferWrite, f, 0, static_cast<Cycle>(i));
    EXPECT_EQ(g_allocs.load(), before);
    // The cheap always-on counters still ticked.
    EXPECT_EQ(rec.summary()
                  .counters.events[static_cast<int>(Stage::BufferWrite)],
              10000u);
}

// --- recorder slice derivation --------------------------------------

TEST(RecorderTest, ConsecutiveEventsBecomeSlices)
{
    Recorder rec(tinyOptions());
    Flit f = headFlit(1, 0, 3);
    rec.record(Stage::SourceEnqueue, f, 0, 10);
    rec.record(Stage::BufferWrite, f, 0, 14);
    rec.record(Stage::VaGrant, f, 0, 15);
    rec.record(Stage::SwitchTraverse, f, 0, 16);
    rec.record(Stage::BufferWrite, f, 1, 19);
    rec.record(Stage::Eject, f, 3, 25);
    rec.recordEndToEnd(f, 25);

    Summary s = rec.summary();
    EXPECT_EQ(s.counters.sampledPackets, 1u);
    // source-queue wait 10->14, va-wait 14->15 and 19->25, sa-wait
    // 15->16, link 16->19.
    auto res = [&](Stage st) {
        return s.residency[static_cast<std::size_t>(st)];
    };
    EXPECT_EQ(res(Stage::SourceEnqueue).count(), 1u);
    EXPECT_DOUBLE_EQ(res(Stage::SourceEnqueue).mean(), 4.0);
    EXPECT_EQ(res(Stage::BufferWrite).count(), 2u);
    EXPECT_EQ(res(Stage::VaGrant).count(), 1u);
    EXPECT_EQ(res(Stage::SwitchTraverse).count(), 1u);
    EXPECT_DOUBLE_EQ(res(Stage::SwitchTraverse).mean(), 3.0);
    EXPECT_EQ(s.endToEnd.count(), 1u);
    EXPECT_DOUBLE_EQ(s.endToEnd.mean(), 25.0);
    // src 0 -> dst 3 on a 2x2 mesh is Manhattan distance 2.
    ASSERT_EQ(s.byDistance.size(), 3u);
    EXPECT_EQ(s.byDistance[2].count(), 1u);
    // Slices landed in the rings of the routers that owned them.
    EXPECT_GT(rec.ring(0).size(), 0u);
    EXPECT_GT(rec.ring(3).size(), 0u);
}

// --- Perfetto export -------------------------------------------------

void
expectValidPerfetto(const std::string &json)
{
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"source-queue\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    // Balanced braces/brackets and no trailing comma before a closer.
    int depth = 0;
    for (std::size_t i = 0; i < json.size(); ++i) {
        char c = json[i];
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']') {
            --depth;
            std::size_t back = json.find_last_not_of(" \n\t", i - 1);
            EXPECT_NE(json[back], ',') << "trailing comma at " << i;
        }
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(PerfettoTest, StructurallyValidJson)
{
    Recorder rec(tinyOptions());
    Flit f = headFlit(42, 0, 3);
    rec.record(Stage::SourceEnqueue, f, 0, 1);
    rec.record(Stage::BufferWrite, f, 0, 3);
    rec.record(Stage::VaGrant, f, 0, 4);
    rec.record(Stage::SwitchTraverse, f, 0, 5);
    rec.record(Stage::Eject, f, 3, 9);
    expectValidPerfetto(perfettoJson(rec));
}

// --- end-to-end capture through a Simulator -------------------------

SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.arch = RouterArch::Roco;
    cfg.injectionRate = 0.1;
    cfg.warmupPackets = 20;
    cfg.measurePackets = 60;
    return cfg;
}

TEST(RecorderEnvDeathTest, MalformedTraceKnobsAreFatal)
{
    // Values a lax parser misreads: -1 as 2^64-1 (a ring too large to
    // allocate, or a sample rate that traces nothing), the others as
    // the default.
    const SimConfig cfg = smallConfig();
    ASSERT_EQ(setenv("NOC_TRACE", "1", 1), 0);
    for (const char *var : {"NOC_TRACE_BUF", "NOC_TRACE_SAMPLE"}) {
        for (const char *bad : {"-1", "abc", "8x", ""}) {
            ASSERT_EQ(setenv(var, bad, 1), 0);
            EXPECT_EXIT(Recorder::fromEnv(cfg), testing::ExitedWithCode(1),
                        std::string(var) + "='" + bad + "'")
                << var << "=" << bad;
        }
        ASSERT_EQ(unsetenv(var), 0);
    }
    // Above the ring ceiling: out of range, not an allocation failure.
    ASSERT_EQ(setenv("NOC_TRACE_BUF", "99999999999", 1), 0);
    EXPECT_EXIT(Recorder::fromEnv(cfg), testing::ExitedWithCode(1),
                "NOC_TRACE_BUF='99999999999'");

    // Well-formed values still build a recorder.
    ASSERT_EQ(setenv("NOC_TRACE_BUF", "0", 1), 0);
    ASSERT_EQ(setenv("NOC_TRACE_SAMPLE", "4", 1), 0);
    EXPECT_NE(Recorder::fromEnv(cfg), nullptr);
    ASSERT_EQ(unsetenv("NOC_TRACE_BUF"), 0);
    ASSERT_EQ(unsetenv("NOC_TRACE_SAMPLE"), 0);
    ASSERT_EQ(unsetenv("NOC_TRACE"), 0);
}

TEST(ObsSimulatorTest, RecorderDoesNotPerturbResults)
{
    SimConfig cfg = smallConfig();
    Simulator plain(cfg);
    SimResult a = plain.run();

    Simulator traced(cfg);
    traced.attachObserver(
        std::make_shared<Recorder>([&] {
            Recorder::Options opt;
            opt.nodes = cfg.meshWidth * cfg.meshHeight;
            opt.meshWidth = cfg.meshWidth;
            opt.meshHeight = cfg.meshHeight;
            opt.arch = cfg.arch;
            return opt;
        }()));
    SimResult b = traced.run();

    EXPECT_EQ(a, b);
}

TEST(ObsSimulatorTest, CapturesFullLifecycle)
{
    SimConfig cfg = smallConfig();
    Simulator sim(cfg);
    Recorder::Options opt;
    opt.nodes = cfg.meshWidth * cfg.meshHeight;
    opt.meshWidth = cfg.meshWidth;
    opt.meshHeight = cfg.meshHeight;
    opt.arch = cfg.arch;
    auto rec = std::make_shared<Recorder>(opt);
    sim.attachObserver(rec);
    SimResult r = sim.run();

    Summary s = rec->summary();
    EXPECT_GT(s.counters.sampledPackets, 0u);
    EXPECT_GT(s.counters.events[static_cast<int>(Stage::SourceEnqueue)],
              0u);
    EXPECT_GT(s.counters.events[static_cast<int>(Stage::BufferWrite)], 0u);
    // Every measured delivery fed the measurement-window histogram.
    EXPECT_EQ(s.endToEndMeasured.count(), r.delivered);
    EXPECT_GE(s.endToEnd.count(), s.endToEndMeasured.count());
    std::string json = perfettoJson(*rec);
    EXPECT_NE(json.find("\"source-queue\""), std::string::npos);
}

TEST(ObsSimulatorTest, TraceEnvWritesPerfettoJson)
{
    const std::string path = testing::TempDir() + "obs_test_trace_" +
                             std::to_string(getpid()) + ".json";
    std::remove(path.c_str());
    ASSERT_EQ(setenv("NOC_TRACE_OUT", path.c_str(), 1), 0);

    // NOC_TRACE unset: no recorder attaches, so nothing is written.
    ASSERT_EQ(unsetenv("NOC_TRACE"), 0);
    Simulator(smallConfig()).run();
    EXPECT_FALSE(std::ifstream(path).good());

    ASSERT_EQ(setenv("NOC_TRACE", "1", 1), 0);
    Simulator(smallConfig()).run();
    ASSERT_EQ(unsetenv("NOC_TRACE"), 0);
    ASSERT_EQ(unsetenv("NOC_TRACE_OUT"), 0);
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "NOC_TRACE=1 wrote no trace to " << path;
    std::ostringstream json;
    json << in.rdbuf();
    expectValidPerfetto(json.str());
    std::remove(path.c_str());
}

// --- concurrent merge (exercised under tsan via the CI filter) ------

Summary
syntheticSummary(std::uint64_t salt)
{
    Summary s;
    for (std::uint64_t v = 0; v < 50; ++v) {
        s.residency[1].record(v + salt);
        s.endToEnd.record(3 * v + salt);
    }
    s.counters.events[1] = 50 + salt;
    s.counters.sampledPackets = salt;
    s.counters.occupancySum[0] = salt * 2;
    s.counters.occupancySamples = 1;
    s.byDistance.resize(1 + salt % 4);
    s.byDistance[salt % 4].record(salt);
    return s;
}

void
expectSummaryEq(const Summary &a, const Summary &b)
{
    for (int st = 0; st < kStageCount; ++st) {
        EXPECT_EQ(a.residency[st].count(), b.residency[st].count());
        EXPECT_DOUBLE_EQ(a.residency[st].percentile(0.99),
                         b.residency[st].percentile(0.99));
        EXPECT_EQ(a.counters.events[st], b.counters.events[st]);
    }
    EXPECT_EQ(a.endToEnd.count(), b.endToEnd.count());
    EXPECT_DOUBLE_EQ(a.endToEnd.mean(), b.endToEnd.mean());
    EXPECT_EQ(a.endToEndMeasured.count(), b.endToEndMeasured.count());
    ASSERT_EQ(a.byDistance.size(), b.byDistance.size());
    for (std::size_t d = 0; d < a.byDistance.size(); ++d)
        EXPECT_EQ(a.byDistance[d].count(), b.byDistance[d].count());
    EXPECT_EQ(a.counters.sampledPackets, b.counters.sampledPackets);
    EXPECT_EQ(a.counters.occupancySum[0], b.counters.occupancySum[0]);
    EXPECT_EQ(a.counters.occupancySamples, b.counters.occupancySamples);
}

TEST(ObsConcurrentMergeTest, ThreadedMergeMatchesSerial)
{
    constexpr int kParts = 32;
    std::vector<Summary> parts;
    parts.reserve(kParts);
    for (std::uint64_t i = 0; i < kParts; ++i)
        parts.push_back(syntheticSummary(i));

    Summary serial;
    for (const Summary &p : parts)
        serial.merge(p);

    Summary threaded;
    std::mutex mu;
    std::atomic<int> next{0};
    auto worker = [&] {
        for (;;) {
            int i = next.fetch_add(1);
            if (i >= kParts)
                return;
            std::lock_guard<std::mutex> lock(mu);
            threaded.merge(parts[static_cast<std::size_t>(i)]);
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < 8; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    expectSummaryEq(serial, threaded);
}

TEST(ObsConcurrentMergeTest, SweepAggregateIndependentOfPoolSize)
{
    exp::SweepSpec spec;
    spec.name = "obs_merge_smoke";
    spec.base = smallConfig();
    spec.base.warmupPackets = 10;
    spec.base.measurePackets = 30;
    spec.archs = {RouterArch::Roco, RouterArch::Generic};
    spec.rates = {0.05, 0.1};

    ASSERT_EQ(setenv("NOC_TRACE", "1", 1), 0);
    exp::SweepResults serial = exp::SweepRunner(1).run(spec);
    exp::SweepResults pooled = exp::SweepRunner(4).run(spec);
    unsetenv("NOC_TRACE");

    ASSERT_NE(serial.obs, nullptr);
    ASSERT_NE(pooled.obs, nullptr);
    expectSummaryEq(*serial.obs, *pooled.obs);
}

} // namespace
} // namespace noc::obs
