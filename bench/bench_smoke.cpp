/**
 * @file
 * Wall-clock guards no gtest can hold, small enough to run under
 * ThreadSanitizer in CI (registered as the `bench_smoke` ctest):
 *
 *  - an idle (disabled) recorder must not slow the untraced hot path
 *    beyond timer noise;
 *  - idle-skip must match the plain step loop's results and not come
 *    out grossly slower (BENCH_smoke_throughput.json);
 *  - a 16x16 serial-vs-4-shard probe records the wall-clock ratio in
 *    BENCH_smoke_shards.json; the ratio is informational (flat on
 *    single-core or sanitizer hosts), only divergence fails the bench.
 *
 * The result-identity contracts (pool size, shard count, an attached
 * recorder) are gtests: SweepRunnerTest, ShardEquivalenceTest,
 * ObsSimulatorTest and ObsConcurrentMergeTest. Exits non-zero on any
 * violation.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "obs/recorder.h"

#if defined(__SANITIZE_THREAD__)
#define SMOKE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SMOKE_TSAN 1
#endif
#endif
#ifndef SMOKE_TSAN
#define SMOKE_TSAN 0
#endif

namespace {

using namespace noc;
using namespace noc::bench;

/** One timed run; a disabled recorder is attached when @p disabled. */
double
timedRun(const SimConfig &cfg, bool disabledRecorder)
{
    Simulator sim(cfg);
    if (disabledRecorder) {
        obs::Recorder::Options opt;
        opt.nodes = cfg.meshWidth * cfg.meshHeight;
        opt.meshWidth = cfg.meshWidth;
        opt.meshHeight = cfg.meshHeight;
        opt.arch = cfg.arch;
        opt.enabled = false;
        sim.attachObserver(std::make_shared<obs::Recorder>(opt));
    }
    auto t0 = std::chrono::steady_clock::now();
    sim.run();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Overhead guard for the untraced hot path: min-of-3 wall time with a
 * disabled recorder attached vs without one. The disabled recorder
 * costs one early-out call per hook, so a blow-up beyond the generous
 * noise bound means the hot path regressed.
 */
int
checkDisabledOverhead()
{
    SimConfig cfg = paperConfig(RouterArch::Roco, RoutingKind::XY,
                                TrafficKind::Uniform, 0.15);
    cfg.warmupPackets = 100;
    cfg.measurePackets = 1500;
    double plain = 1e300, withRec = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        plain = std::min(plain, timedRun(cfg, false));
        withRec = std::min(withRec, timedRun(cfg, true));
    }
    double ratio = withRec / plain;
    std::printf("bench_smoke: untraced hot path x%.2f with idle recorder "
                "(%.1f ms vs %.1f ms)\n",
                ratio, withRec, plain);
    if (ratio > 1.75) {
        std::fprintf(stderr, "idle-recorder overhead beyond noise\n");
        return 1;
    }
    return 0;
}

/**
 * Wall-clock scaling probe: 16x16 uniform RoCo, serial vs 4 shards,
 * recorded in BENCH_smoke_shards.json. Purely informational — hosts
 * with fewer free cores than shards (CI runners, this container, any
 * sanitizer build) legitimately show ~1x, so only result divergence
 * fails; speedup is for machines with cores to spend.
 */
int
checkShardSpeedup()
{
    SimConfig cfg = paperConfig(RouterArch::Roco, RoutingKind::XY,
                                TrafficKind::Uniform, 0.2);
    cfg.meshWidth = 16;
    cfg.meshHeight = 16;
    cfg.warmupPackets = SMOKE_TSAN ? 50 : 200;
    cfg.measurePackets = SMOKE_TSAN ? 300 : 2000;

    double serialMs = 1e300, shardedMs = 1e300;
    SimResult serialR, shardedR;
    for (int rep = 0; rep < 2; ++rep) {
        SimConfig c = cfg;
        c.shards = 1;
        Simulator s1(c);
        auto t0 = std::chrono::steady_clock::now();
        serialR = s1.run();
        serialMs = std::min(
            serialMs, std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());

        c.shards = 4;
        Simulator s4(c);
        t0 = std::chrono::steady_clock::now();
        shardedR = s4.run();
        shardedMs = std::min(
            shardedMs, std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
    bool same = serialR == shardedR;
    double speedup = serialMs / shardedMs;
    unsigned hw = std::thread::hardware_concurrency();
    std::printf("bench_smoke: 16x16 speedup at 4 shards: %.2fx "
                "(%.1f ms -> %.1f ms, %u hw threads)%s\n",
                speedup, serialMs, shardedMs, hw,
                same ? "" : "  DIVERGED");

    char json[256];
    std::snprintf(json, sizeof json,
                  "{\"schema\": 1, \"bench\": \"smoke_shards\", "
                  "\"mesh\": 16, \"shards\": 4, \"serialMs\": %.3f, "
                  "\"shardedMs\": %.3f, \"speedup\": %.4f, "
                  "\"identical\": %s, \"hwThreads\": %u}\n",
                  serialMs, shardedMs, speedup, same ? "true" : "false",
                  hw);
    exp::writeBenchJson("smoke_shards", json);
    return same ? 0 : 1;
}

/**
 * Throughput-regression canary for the serial hot path: min-of-3 wall
 * time of an 8x8 RoCo probe with idle-skip on vs off, recorded in
 * BENCH_smoke_throughput.json.  Two gates: the two runs must produce
 * bit-identical results (idle-skip is provably a no-op), and the
 * skipping engine must not come out grossly slower than the plain loop
 * — a generous 1.5x bound so timer noise and sanitizer builds never
 * trip it, while a real hot-path regression (idle-skip bookkeeping
 * outweighing the work it skips) still does.  Absolute wall times and
 * flit-cycles/second are informational; bench_throughput owns the
 * speedup-vs-baseline comparison.
 */
int
checkThroughputRegression()
{
    SimConfig cfg = paperConfig(RouterArch::Roco, RoutingKind::XY,
                                TrafficKind::Uniform, 0.1);
    cfg.warmupPackets = SMOKE_TSAN ? 50 : 200;
    cfg.measurePackets = SMOKE_TSAN ? 400 : 4000;

    double onMs = 1e300, offMs = 1e300;
    SimResult onR{}, offR{};
    std::uint64_t flitCycles = 0;
    for (int rep = 0; rep < 3; ++rep) {
        SimConfig c = cfg;
        c.idleSkip = true;
        Simulator sOn(c);
        auto t0 = std::chrono::steady_clock::now();
        onR = sOn.run();
        onMs = std::min(onMs, std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
        flitCycles = sOn.network().ledger().flitCycles;

        c.idleSkip = false;
        Simulator sOff(c);
        t0 = std::chrono::steady_clock::now();
        offR = sOff.run();
        offMs = std::min(offMs,
                         std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    }

    int bad = 0;
    if (onR != offR) {
        std::fprintf(stderr, "idle-skip on/off results diverged\n");
        ++bad;
    }
    const double ratio = onMs / offMs;
    const double flitCycPerSec =
        onMs > 0 ? static_cast<double>(flitCycles) / (onMs / 1000.0) : 0;
    std::printf("bench_smoke: idle-skip on %.1f ms vs off %.1f ms "
                "(x%.2f), %.3g flit-cycles/s\n",
                onMs, offMs, ratio, flitCycPerSec);
    if (ratio > 1.5) {
        std::fprintf(stderr, "idle-skip slower than the plain loop "
                             "beyond noise\n");
        ++bad;
    }

    char json[320];
    std::snprintf(json, sizeof json,
                  "{\"schema\": 1, \"bench\": \"smoke_throughput\", "
                  "\"mesh\": 8, \"idleSkipMs\": %.3f, \"noSkipMs\": %.3f, "
                  "\"ratio\": %.4f, \"flitCycles\": %" PRIu64 ", "
                  "\"flitCyclesPerSec\": %.1f, \"identical\": %s}\n",
                  onMs, offMs, ratio, flitCycles, flitCycPerSec,
                  bad ? "false" : "true");
    exp::writeBenchJson("smoke_throughput", json);
    return bad;
}

} // namespace

int
main()
{
    int bad = checkDisabledOverhead();
    bad += checkThroughputRegression();
    bad += checkShardSpeedup();
    std::printf("bench_smoke: %s\n", bad ? "FAILED" : "ok");
    return bad ? 1 : 0;
}
