/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * The paper's protocol (20,000 warm-up + 1,000,000 measured packets)
 * is scaled down so the whole suite runs in minutes on a laptop; the
 * comparisons are stable at this scale. Override with:
 *   NOC_BENCH_WARMUP=<packets>  NOC_BENCH_PACKETS=<packets>
 *   NOC_BENCH_SEED=<seed>       NOC_BENCH_THREADS=<pool size>
 *   NOC_BENCH_JSON=0            NOC_BENCH_JSON_DIR=<dir>
 * Every run's cycle budget grows with the packet counts
 * (sizeCycleBudget), so the paper's own scale is reachable too.
 *
 * Grid benches declare a SweepSpec and fan it across a thread pool
 * (exp/sweep.h); the per-point results are identical to a serial run,
 * so the printed tables are thread-count independent.
 */
#ifndef ROCOSIM_BENCH_BENCH_UTIL_H_
#define ROCOSIM_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "exp/json_out.h"
#include "exp/sweep.h"
#include "sim/simulator.h"

namespace noc::bench {

/** A NOC_BENCH_* knob; a malformed value is fatal (common/config.h). */
inline std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    return envNumber<std::uint64_t>(name, fallback);
}

/** Base RNG seed for every bench run (NOC_BENCH_SEED to override). */
inline std::uint64_t
benchSeed()
{
    return envOr("NOC_BENCH_SEED", 0xC0FFEEull);
}

/**
 * Sets @p cfg's cycle budget for an offered load of @p rate: twice the
 * cycles the network takes to generate every warm-up and measured
 * packet, (warmup + measure) x flitsPerPacket / (nodes x rate), but
 * never below 150,000 cycles. At bench scale (800 + 6,000 packets) no
 * bench sizes more than 17,000, so the floor holds; at the paper's
 * 20,000 + 1,000,000 packets it keeps low-load runs from being cut
 * short. Call it again after changing the mesh, the packet length or
 * the rate.
 */
inline void
sizeCycleBudget(SimConfig &cfg, double rate)
{
    const double flits =
        static_cast<double>(cfg.warmupPackets + cfg.measurePackets) *
        cfg.flitsPerPacket;
    const double genCycles = flits / (cfg.meshWidth * cfg.meshHeight * rate);
    // Capped so that no NOC_BENCH_* value overflows the conversion.
    const double budget = std::min(2 * genCycles, 1e18);
    cfg.maxCycles = std::max<Cycle>(150000, static_cast<Cycle>(budget));
}

/** The evaluation configuration of Section 5.4, scaled. */
inline SimConfig
paperConfig(RouterArch arch, RoutingKind routing, TrafficKind traffic,
            double rate)
{
    SimConfig cfg;
    cfg.arch = arch;
    cfg.routing = routing;
    cfg.traffic = traffic;
    cfg.injectionRate = rate;
    cfg.seed = benchSeed();
    cfg.warmupPackets = envOr("NOC_BENCH_WARMUP", 800);
    cfg.measurePackets = envOr("NOC_BENCH_PACKETS", 6000);
    sizeCycleBudget(cfg, rate);
    return cfg;
}

inline SimResult
run(RouterArch arch, RoutingKind routing, TrafficKind traffic,
    double rate, const std::vector<FaultSpec> &faults = {})
{
    Simulator sim(paperConfig(arch, routing, traffic, rate), faults);
    return sim.run();
}

/** Seed line for serial (non-sweep) benches. */
inline void
printSeed()
{
    std::printf("seed: %" PRIu64 "\n", benchSeed());
}

/** A sweep spec named @p name with the paper base config. */
inline exp::SweepSpec
makeSpec(const char *name)
{
    exp::SweepSpec spec;
    spec.name = name;
    spec.base = paperConfig(RouterArch::Roco, RoutingKind::XY,
                            TrafficKind::Uniform, 0.1);
    return spec;
}

/**
 * Runs @p spec on the shared pool, writes BENCH_<name>.json, and
 * prints the seed/threads header every bench output carries. Every
 * point gets the cycle budget of the spec's lowest rate, the one that
 * generates its packets slowest.
 */
inline exp::SweepResults
runSweep(exp::SweepSpec spec)
{
    sizeCycleBudget(spec.base,
                    spec.rates.empty()
                        ? spec.base.injectionRate
                        : *std::min_element(spec.rates.begin(),
                                            spec.rates.end()));
    exp::SweepRunner runner;
    exp::SweepResults res = runner.run(spec);
    exp::writeSweepJson(spec, res);
    std::printf("seed: %" PRIu64 "   threads: %d   points: %zu   "
                "packets: %" PRIu64 " (+%" PRIu64 " warmup)   "
                "wall: %.1f s\n",
                spec.base.seed, res.threads, res.points.size(),
                spec.base.measurePackets, spec.base.warmupPackets,
                res.totalWallMs / 1000.0);
    return res;
}

constexpr RouterArch kArchs[] = {RouterArch::Generic,
                                 RouterArch::PathSensitive,
                                 RouterArch::Roco};
constexpr RoutingKind kRoutings[] = {RoutingKind::XY, RoutingKind::XYYX,
                                     RoutingKind::Adaptive};

inline void
hr()
{
    std::puts("------------------------------------------------------"
              "------------------");
}

/**
 * The timeout marker of the results tables: a value from a run that
 * stopped at its cycle budget prints with a trailing '*' (a "%9.2f%c"
 * cell fills a "%10s" header column), and a table holding any such
 * value ends with legend(). A timed-out run's completion, latency and
 * energy describe a cut run, not a finished one.
 */
class TimeoutMarks
{
  public:
    /** '*' for a timed-out run (remembered for legend()), else ' '. */
    char
    operator()(bool timedOut)
    {
        any_ = any_ || timedOut;
        return timedOut ? '*' : ' ';
    }
    char operator()(const SimResult &r) { return (*this)(r.timedOut); }

    /** The one-line legend, printed only when a marked run timed out. */
    void
    legend() const
    {
        if (any_)
            std::puts("'*' marks runs cut at the cycle budget (timed "
                      "out).");
    }

  private:
    bool any_ = false;
};

/**
 * A spec over the full architecture x routing comparison grid — the
 * axes every figure bench sweeps. The base carries the paper's
 * warm-up/measurement window (paperConfig, NOC_BENCH_* overridable).
 */
inline exp::SweepSpec
makeGridSpec(const char *name)
{
    exp::SweepSpec spec = makeSpec(name);
    spec.archs = {std::begin(kArchs), std::end(kArchs)};
    spec.routings = {std::begin(kRoutings), std::end(kRoutings)};
    return spec;
}

/**
 * The figures' shared table layout: one section per swept routing,
 * each with a column-header line naming the three architectures, a
 * rule, and one data line per row. @p printRow(routingIdx, rowIdx)
 * prints a full line (label, per-arch cells, newline); @p labelWidth /
 * @p rowLabel format the header's row-label column and @p headerTail
 * is appended after the arch columns (e.g. a units note).
 */
template <typename Row>
inline void
perRoutingTables(const exp::SweepSpec &spec, int labelWidth,
                 const char *rowLabel, const char *headerTail,
                 std::size_t rows, Row printRow)
{
    for (std::size_t ro = 0; ro < spec.routings.size(); ++ro) {
        std::printf("\n-- %s routing --\n", toString(spec.routings[ro]));
        std::printf("%-*s %10s %12s %10s%s\n", labelWidth, rowLabel,
                    "Generic", "PathSens", "RoCo", headerTail);
        hr();
        for (std::size_t r = 0; r < rows; ++r)
            printRow(ro, r);
    }
}

} // namespace noc::bench

#endif // ROCOSIM_BENCH_BENCH_UTIL_H_
