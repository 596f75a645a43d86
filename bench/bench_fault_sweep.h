/**
 * @file
 * Shared driver for the Figure 11/12 packet-completion sweeps: one
 * fault class, 1/2/4 random faults, all routings and architectures,
 * averaged over several fault placements.
 *
 * Fault placements are pre-generated into labelled FaultSets (one
 * grid-axis value per placement) so every (routing, arch, placement)
 * combination becomes an independent sweep point; the table averages
 * the placements per cell after the pool has run them all.
 */
#ifndef ROCOSIM_BENCH_BENCH_FAULT_SWEEP_H_
#define ROCOSIM_BENCH_BENCH_FAULT_SWEEP_H_

#include "bench_util.h"
#include "fault/fault_injector.h"

namespace noc::bench {

/** "crit-2f-s11"-style label for a random placement. */
inline std::string
faultSetLabel(const char *prefix, int nf, std::uint64_t seed)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s-%df-s%" PRIu64, prefix, nf, seed);
    return buf;
}

inline int
faultSweep(FaultClass cls, const char *figure, const char *caption,
           const char *specName)
{
    const int faultCounts[] = {1, 2, 4};
    const std::uint64_t seeds[] = {11, 22, 33};
    constexpr std::size_t kSeeds = std::size(seeds);
    MeshTopology topo(8, 8);

    exp::SweepSpec spec = makeGridSpec(specName);
    spec.base.injectionRate = 0.3;
    const char *prefix =
        cls == FaultClass::RouterCentricCritical ? "crit" : "noncrit";
    for (int nf : faultCounts) {
        for (std::uint64_t seed : seeds) {
            spec.faultSets.push_back(
                {faultSetLabel(prefix, nf, seed),
                 placeRandomFaults(topo, cls, nf, 3, seed)});
        }
    }
    exp::SweepResults res = runSweep(spec);
    TimeoutMarks mark;

    std::printf("%s: packet completion probability, 30%% injection, "
                "%s faults\n", figure, caption);
    perRoutingTables(
        spec, 8, "#faults", "", std::size(faultCounts),
        [&](std::size_t ro, std::size_t nfi) {
            std::printf("%-8d", faultCounts[nfi]);
            for (std::size_t ar = 0; ar < spec.archs.size(); ++ar) {
                double sum = 0;
                bool timedOut = false;
                for (std::size_t s = 0; s < kSeeds; ++s) {
                    const SimResult &r =
                        res.at(spec, ro, 0, 0, nfi * kSeeds + s, ar);
                    sum += r.completion;
                    timedOut = timedOut || r.timedOut;
                }
                std::printf(" %9.3f%c", sum / static_cast<double>(kSeeds),
                            mark(timedOut));
            }
            std::puts("");
        });
    mark.legend();
    return 0;
}

} // namespace noc::bench

#endif // ROCOSIM_BENCH_BENCH_FAULT_SWEEP_H_
