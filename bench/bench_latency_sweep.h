/**
 * @file
 * Shared driver for the Figure 8/9/10 latency-vs-injection-rate
 * sweeps: one traffic pattern, all routings, all architectures.
 *
 * The whole grid (3 routings x 8 rates x 3 archs = 72 points) is one
 * SweepSpec fanned across the thread pool; the tables are then printed
 * from the collected results in the figures' order.
 */
#ifndef ROCOSIM_BENCH_BENCH_LATENCY_SWEEP_H_
#define ROCOSIM_BENCH_BENCH_LATENCY_SWEEP_H_

#include "bench_util.h"

namespace noc::bench {

inline int
latencySweep(TrafficKind traffic, const char *figure, const char *specName)
{
    exp::SweepSpec spec = makeGridSpec(specName);
    spec.base.traffic = traffic;
    spec.rates = {0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4};
    exp::SweepResults res = runSweep(spec);
    TimeoutMarks mark;

    std::printf("%s: average latency (cycles) vs injection rate, 8x8 "
                "mesh, %s traffic\n", figure, toString(traffic));
    perRoutingTables(
        spec, 6, "rate", "   (throughput f/n/c)", spec.rates.size(),
        [&](std::size_t ro, std::size_t ra) {
            std::printf("%-6.2f", spec.rates[ra]);
            char thr[64];
            int off = 0;
            for (std::size_t ar = 0; ar < spec.archs.size(); ++ar) {
                const SimResult &r = res.at(spec, ro, 0, ra, 0, ar);
                std::printf(" %9.2f%c", r.avgLatency, mark(r));
                off += std::snprintf(thr + off, sizeof thr - off,
                                     " %.3f", r.throughputFlits);
            }
            std::printf("  (%s )\n", thr);
        });
    std::puts("");
    mark.legend();
    std::puts("Paper shape: RoCo lowest at low/mid load; all curves "
              "diverge at saturation.");
    return 0;
}

} // namespace noc::bench

#endif // ROCOSIM_BENCH_BENCH_LATENCY_SWEEP_H_
