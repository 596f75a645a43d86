/**
 * @file
 * Smoke test for the parallel sweep machinery, small enough to run
 * under ThreadSanitizer in CI (registered as the `bench_smoke` ctest).
 *
 * Forces a multi-thread pool regardless of host core count so the
 * runner's sharing (atomic work counter, per-slot result writes, the
 * locked observability aggregate) is actually exercised, then
 * cross-checks the pool's results against a serial run. Also guards
 * the observability contracts: an attached recorder must not perturb
 * simulation results, the trace aggregate must be pool-size
 * independent, and the untraced hot path must not pay for the obs
 * subsystem's existence. Exits non-zero on any violation.
 *
 * The sharded engine (src/par) gets the same treatment: every
 * architecture x routing (plus a critical-fault row) is run serial and
 * at 2 and 4 shards and must match bit-for-bit — results, flit ledger
 * and (in NOC_OBS builds) the trace summary. A 16x16 speedup probe
 * then records the serial-vs-4-shard wall-clock ratio in
 * BENCH_smoke_shards.json; the ratio is informational (flat on
 * single-core or sanitizer hosts), only divergence fails the bench.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_util.h"
#include "fault/fault_injector.h"
#include "obs/obs.h"
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

exp::SweepSpec
smokeSpec()
{
    exp::SweepSpec spec = makeSpec("smoke");
    spec.base.meshWidth = 4;
    spec.base.meshHeight = 4;
    spec.base.warmupPackets = 20;
    spec.base.measurePackets = 150;
    spec.base.maxCycles = 20000;
    spec.archs = {std::begin(kArchs), std::end(kArchs)};
    spec.rates = {0.1, 0.2};
    return spec;
}

int
comparePools(const exp::SweepResults &serial, const exp::SweepResults &pooled)
{
    int bad = 0;
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        if (serial.results[i].result != pooled.results[i].result) {
            std::fprintf(stderr, "point %zu diverged across pools\n", i);
            ++bad;
        }
    }
    return bad;
}

/** The sweep above, traced: the merged aggregate must be identical for
 *  a serial and a pooled run (Summary::merge is commutative), and in
 *  builds without the compiled-in hooks it must not form at all. */
int
checkObsAggregate()
{
    setenv("NOC_TRACE", "1", 1);
    exp::SweepSpec spec = smokeSpec();
    exp::SweepResults serial = exp::SweepRunner(1).run(spec);
    exp::SweepResults pooled = exp::SweepRunner(4).run(spec);
    unsetenv("NOC_TRACE");

    if (!obs::kBuiltIn) {
        if (serial.obs || pooled.obs) {
            std::fprintf(stderr, "obs aggregate formed without hooks\n");
            return 1;
        }
        return 0;
    }
    if (!serial.obs || !pooled.obs) {
        std::fprintf(stderr, "traced sweep produced no obs aggregate\n");
        return 1;
    }
    int bad = 0;
    for (int st = 0; st < obs::kStageCount; ++st) {
        if (serial.obs->counters.events[st] !=
                pooled.obs->counters.events[st] ||
            serial.obs->residency[st].count() !=
                pooled.obs->residency[st].count()) {
            std::fprintf(stderr, "obs aggregate diverged at stage %d\n", st);
            ++bad;
        }
    }
    if (serial.obs->endToEnd.count() != pooled.obs->endToEnd.count() ||
        serial.obs->endToEnd.percentile(0.99) !=
            pooled.obs->endToEnd.percentile(0.99)) {
        std::fprintf(stderr, "obs end-to-end histogram diverged\n");
        ++bad;
    }
    return bad;
}

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
 * disabled recorder attached vs without one. In NOC_OBS=OFF builds the
 * hooks are compiled out, so both paths run the same code and only
 * timer noise separates them; in NOC_OBS=ON builds the disabled
 * recorder costs one branch per hook. Either way a blow-up beyond the
 * generous noise bound means the hot path regressed.
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
                "(%.1f ms vs %.1f ms, NOC_OBS %s)\n",
                ratio, withRec, plain, obs::kBuiltIn ? "ON" : "OFF");
    if (ratio > 1.75) {
        std::fprintf(stderr, "idle-recorder overhead beyond noise\n");
        return 1;
    }
    return 0;
}

/**
 * One shard-equivalence observation: results + ledger + obs summary.
 * Equality takes the whole ledger, per-class counters included: a shard
 * mis-binning a flit's class fails even when the aggregates match.
 */
struct ShardRun {
    SimResult r;
    FlitLedger ledger;
    std::uint64_t e2eCount = 0, e2eMeasured = 0, sampled = 0;

    bool operator==(const ShardRun &) const = default;
};

ShardRun
shardRun(SimConfig cfg, const std::vector<FaultSpec> &faults, int shards)
{
    cfg.shards = shards;
    Simulator sim(cfg, faults);
    std::shared_ptr<obs::Recorder> rec;
    if (obs::kBuiltIn) {
        obs::Recorder::Options opt;
        opt.nodes = cfg.meshWidth * cfg.meshHeight;
        opt.meshWidth = cfg.meshWidth;
        opt.meshHeight = cfg.meshHeight;
        opt.arch = cfg.arch;
        rec = std::make_shared<obs::Recorder>(opt);
        sim.attachObserver(rec);
    }
    ShardRun out;
    out.r = sim.run();
    out.ledger = sim.network().ledger();
    if (rec) {
        obs::Summary s = rec->summary();
        out.e2eCount = s.endToEnd.count();
        out.e2eMeasured = s.endToEndMeasured.count();
        out.sampled = s.counters.sampledPackets;
    }
    return out;
}

/**
 * Sharded execution must be bit-identical to serial for every router
 * architecture and routing algorithm, with and without faults — the
 * engine's whole contract. 6x6 keeps ShardPlan splits non-trivial at
 * 4 shards while the matrix stays tsan-sized.
 */
int
checkShardEquivalence()
{
    MeshTopology topo(6, 6);
    std::vector<FaultSpec> critFaults = placeRandomFaults(
        topo, FaultClass::RouterCentricCritical, 2, 3, 11);

    int bad = 0;
    int combos = 0;
    for (RouterArch arch : kArchs) {
        for (RoutingKind routing : kRoutings) {
            SimConfig cfg = paperConfig(arch, routing,
                                        TrafficKind::Uniform, 0.2);
            cfg.meshWidth = 6;
            cfg.meshHeight = 6;
            cfg.warmupPackets = 20;
            cfg.measurePackets = 120;
            cfg.maxCycles = 20000;
            // Fault rows only on adaptive: faulted minimal routings
            // drain through the inactivity window, which is the slow
            // path this smoke bench cannot afford per-combination (the
            // shard_test gtest covers the full matrix).
            const bool withFaults = routing == RoutingKind::Adaptive;
            for (int f = 0; f < (withFaults ? 2 : 1); ++f) {
                const std::vector<FaultSpec> &faults =
                    f ? critFaults : std::vector<FaultSpec>{};
                ShardRun serial = shardRun(cfg, faults, 1);
                for (int shards : {2, 4}) {
                    if (serial != shardRun(cfg, faults, shards)) {
                        std::fprintf(stderr,
                                     "shard divergence: %s/%s %s at %d "
                                     "shards\n",
                                     toString(arch), toString(routing),
                                     f ? "2-crit-faults" : "fault-free",
                                     shards);
                        ++bad;
                    }
                }
                ++combos;
            }
        }
    }
    std::printf("bench_smoke: %d shard-equivalence combos x {2,4} shards "
                "vs serial, %s\n", combos, bad ? "DIVERGED" : "identical");
    return bad;
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

/** An attached (enabled) recorder must not change simulation results. */
int
checkRecorderInert()
{
    SimConfig cfg = paperConfig(RouterArch::Roco, RoutingKind::XY,
                                TrafficKind::Uniform, 0.15);
    cfg.warmupPackets = 50;
    cfg.measurePackets = 400;
    Simulator plain(cfg);
    SimResult a = plain.run();

    Simulator traced(cfg);
    obs::Recorder::Options opt;
    opt.nodes = cfg.meshWidth * cfg.meshHeight;
    opt.meshWidth = cfg.meshWidth;
    opt.meshHeight = cfg.meshHeight;
    opt.arch = cfg.arch;
    auto rec = std::make_shared<obs::Recorder>(opt);
    traced.attachObserver(rec);
    SimResult b = traced.run();

    if (a != b) {
        std::fprintf(stderr, "recorder perturbed simulation results\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main()
{
    exp::SweepSpec spec = smokeSpec();
    exp::SweepResults serial = exp::SweepRunner(1).run(spec);
    exp::SweepResults pooled = exp::SweepRunner(4).run(spec);

    int bad = comparePools(serial, pooled);
    bad += checkObsAggregate();
    bad += checkRecorderInert();
    bad += checkDisabledOverhead();
    bad += checkThroughputRegression();
    bad += checkShardEquivalence();
    bad += checkShardSpeedup();

    std::printf("bench_smoke: %zu points, %d threads, %s\n",
                pooled.results.size(), pooled.threads,
                bad ? "MISMATCH" : "serial == pooled");
    return bad ? 1 : 0;
}
