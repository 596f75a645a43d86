/**
 * @file
 * Single-core flit-throughput benchmark for the flat hot path.
 *
 * Runs a fixed probe grid (8x8 mesh, XY routing, uniform traffic at
 * three loads across all three router architectures, SimConfig
 * defaults otherwise) three ways per probe:
 *
 *   timed   - serial engine, idle-skip on (the production hot path),
 *             best-of-NOC_BENCH_REPS wall time
 *   noskip  - serial engine, idle-skip off
 *   sharded - deterministic 2-shard engine
 *
 * The timed run yields flit-cycles simulated per wall second (the
 * ledger's flitCycles numerator over the best wall time) and a speedup
 * against the frozen seed-revision numbers in throughput_baseline.h.
 * The other two runs are correctness gates: every SimResult field and
 * the flit ledger must match the timed run bit-for-bit, otherwise the
 * bench exits non-zero — an optimisation that changes results is a
 * bug, not a speedup.  A baseline row whose simulated-cycle count no
 * longer matches the current build is reported as stale and its
 * speedup suppressed rather than compared across different workloads.
 *
 * Writes BENCH_throughput.json (NOC_BENCH_JSON=0 suppresses).  The
 * ctest registration shrinks the workload via NOC_BENCH_PACKETS so the
 * equivalence gates run everywhere (including under tsan); CI's perf
 * job runs the full grid and uploads the JSON artifact.
 */
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "throughput_baseline.h"

namespace {

using namespace noc;
using namespace noc::bench;

struct Probe {
    const char *tag;
    RouterArch arch;
    double rate;
};

constexpr Probe kProbes[] = {
    {"roco_xy_0.02", RouterArch::Roco, 0.02},
    {"roco_xy_0.1", RouterArch::Roco, 0.1},
    {"roco_xy_0.3", RouterArch::Roco, 0.3},
    {"generic_xy_0.1", RouterArch::Generic, 0.1},
    {"ps_xy_0.1", RouterArch::PathSensitive, 0.1},
};

/** Everything one run produces that the equivalence gate compares. */
struct RunObs {
    SimResult r;
    FlitLedger ledger;
    std::uint64_t stepsExecuted = 0;
    std::uint64_t stepsScheduled = 0;
    double wallMs = 0;
};

RunObs
runOnce(SimConfig cfg)
{
    Simulator sim(cfg);
    auto t0 = std::chrono::steady_clock::now();
    RunObs obs;
    obs.r = sim.run();
    obs.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    obs.ledger = sim.network().ledger();
    obs.stepsExecuted = sim.network().routerStepsExecuted();
    obs.stepsScheduled = sim.network().routerStepsScheduled();
    return obs;
}

bool
identical(const RunObs &a, const RunObs &b)
{
    return a.r == b.r && a.ledger == b.ledger;
}

const ThroughputBaseline *
findBaseline(const char *tag)
{
    for (const ThroughputBaseline &b : kThroughputBaseline)
        if (std::string(b.tag) == tag)
            return &b;
    return nullptr;
}

} // namespace

int
main()
{
    const int reps =
        static_cast<int>(envOr("NOC_BENCH_REPS", 3));
    const std::uint64_t warmup = envOr("NOC_BENCH_WARMUP", 2000);
    const std::uint64_t packets = envOr("NOC_BENCH_PACKETS", 20000);
    const bool fullGrid = warmup == 2000 && packets == 20000;

    std::printf("bench_throughput: 8x8 XY uniform, %" PRIu64
                " packets (+%" PRIu64 " warmup), best of %d\n",
                packets, warmup, reps);
    hr();
    std::printf("%-16s %9s %9s %12s %8s %7s %s\n", "probe", "wall ms",
                "base ms", "flit-cyc/s", "speedup", "skip%", "gates");
    std::string rows;
    int bad = 0;

    for (const Probe &p : kProbes) {
        SimConfig cfg;
        cfg.arch = p.arch;
        cfg.injectionRate = p.rate;
        cfg.warmupPackets = warmup;
        cfg.measurePackets = packets;

        RunObs best = runOnce(cfg);
        for (int rep = 1; rep < reps; ++rep) {
            RunObs again = runOnce(cfg);
            if (!identical(best, again)) {
                std::fprintf(stderr, "%s: repeat run diverged\n", p.tag);
                ++bad;
            }
            best.wallMs = std::min(best.wallMs, again.wallMs);
        }

        SimConfig off = cfg;
        off.idleSkip = false;
        RunObs noskip = runOnce(off);
        if (!identical(best, noskip)) {
            std::fprintf(stderr, "%s: idle-skip off diverged\n", p.tag);
            ++bad;
        }

        SimConfig sh = cfg;
        sh.shards = 2;
        RunObs sharded = runOnce(sh);
        if (!identical(best, sharded)) {
            std::fprintf(stderr, "%s: 2-shard run diverged\n", p.tag);
            ++bad;
        }

        const double wallSec = best.wallMs / 1000.0;
        const double flitCycPerSec =
            wallSec > 0 ? static_cast<double>(best.ledger.flitCycles) /
                              wallSec
                        : 0;
        const double skipPct =
            best.stepsScheduled
                ? 100.0 * (1.0 - static_cast<double>(best.stepsExecuted) /
                                     static_cast<double>(
                                         best.stepsScheduled))
                : 0;

        const ThroughputBaseline *base =
            fullGrid ? findBaseline(p.tag) : nullptr;
        const bool stale = base && base->cycles != best.r.cycles;
        const double speedup =
            base && !stale && best.wallMs > 0 ? base->wallMs / best.wallMs
                                              : 0;
        if (stale) {
            std::fprintf(stderr,
                         "%s: baseline stale (cycles %" PRIu64
                         " vs recorded %" PRIu64 "), speedup suppressed\n",
                         p.tag, static_cast<std::uint64_t>(best.r.cycles),
                         base->cycles);
        }

        char spdBuf[32], baseBuf[32];
        if (speedup > 0)
            std::snprintf(spdBuf, sizeof spdBuf, "%.2fx", speedup);
        else
            std::snprintf(spdBuf, sizeof spdBuf, "%s",
                          stale ? "stale" : "n/a");
        if (base)
            std::snprintf(baseBuf, sizeof baseBuf, "%.1f", base->wallMs);
        else
            std::snprintf(baseBuf, sizeof baseBuf, "-");
        std::printf("%-16s %9.1f %9s %12.3e %8s %6.1f%% %s\n", p.tag,
                    best.wallMs, baseBuf, flitCycPerSec, spdBuf, skipPct,
                    bad ? "DIVERGED" : "ok");

        char row[512];
        std::snprintf(
            row, sizeof row,
            "    {\"tag\": \"%s\", \"wallMs\": %.3f, \"cycles\": %" PRIu64
            ", \"flitCycles\": %" PRIu64 ", \"flitCyclesPerSec\": %.1f, "
            "\"baselineWallMs\": %.3f, \"speedup\": %.4f, "
            "\"baselineStale\": %s, \"stepsExecuted\": %" PRIu64
            ", \"stepsScheduled\": %" PRIu64 "}",
            p.tag, best.wallMs, static_cast<std::uint64_t>(best.r.cycles),
            best.ledger.flitCycles, flitCycPerSec,
            base ? base->wallMs : 0.0, speedup, stale ? "true" : "false",
            best.stepsExecuted, best.stepsScheduled);
        if (!rows.empty())
            rows += ",\n";
        rows += row;
    }

    hr();
    std::printf("bench_throughput: equivalence gates (noskip, 2-shard, "
                "repeat) %s\n",
                bad ? "DIVERGED" : "all identical");

    std::string json = "{\n  \"schema\": 1,\n  \"bench\": "
                       "\"throughput\",\n  \"mesh\": 8,\n";
    json += "  \"warmupPackets\": " + std::to_string(warmup) + ",\n";
    json += "  \"measurePackets\": " + std::to_string(packets) + ",\n";
    json += "  \"reps\": " + std::to_string(reps) + ",\n";
    json += std::string("  \"fullGrid\": ") +
            (fullGrid ? "true" : "false") + ",\n";
    json += std::string("  \"identical\": ") + (bad ? "false" : "true") +
            ",\n  \"probes\": [\n" + rows + "\n  ]\n}\n";
    exp::writeBenchJson("throughput", json);

    return bad ? 1 : 0;
}
