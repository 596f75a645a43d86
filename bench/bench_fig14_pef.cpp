/**
 * @file
 * Figure 14: the composite Performance-Energy-Fault-tolerance metric
 * (PEF = EDP / completion probability) and the average latency of the
 * survivors, vs the number of injected faults — (a) critical-region
 * faults, (b) non-critical-region faults.
 *
 * Both panels share one sweep: the fault-set axis enumerates
 * (class, count, placement) so all 54 points run on the pool at once.
 */
#include "bench_fault_sweep.h"

namespace {

constexpr int kFaultCounts[] = {1, 2, 4};
constexpr std::uint64_t kSeeds[] = {11, 22, 33};
constexpr std::size_t kNumCounts = std::size(kFaultCounts);
constexpr std::size_t kNumSeeds = std::size(kSeeds);

void
panel(const noc::exp::SweepSpec &spec, const noc::exp::SweepResults &res,
      std::size_t clsIdx, const char *title)
{
    using namespace noc::bench;
    TimeoutMarks mark;

    std::printf("\n%s\n", title);
    std::printf("%-8s | %30s | %27s\n", "",
                "PEF (nJ*cycles/probability)", "avg latency (cycles)");
    std::printf("%-8s | %8s %12s %8s | %8s %9s %8s\n", "#faults",
                "Generic", "PathSens", "RoCo", "Generic", "PathSens",
                "RoCo");
    hr();
    for (std::size_t nfi = 0; nfi < kNumCounts; ++nfi) {
        double pef[3] = {};
        double lat[3] = {};
        char m[3];
        for (std::size_t ar = 0; ar < spec.archs.size(); ++ar) {
            bool timedOut = false;
            for (std::size_t s = 0; s < kNumSeeds; ++s) {
                std::size_t fs = (clsIdx * kNumCounts + nfi) * kNumSeeds + s;
                const noc::SimResult &r = res.at(spec, 0, 0, 0, fs, ar);
                pef[ar] += r.pef / kNumSeeds;
                lat[ar] += r.avgLatency / kNumSeeds;
                timedOut = timedOut || r.timedOut;
            }
            m[ar] = mark(timedOut);
        }
        std::printf("%-8d | %7.1f%c %11.1f%c %7.1f%c | %7.1f%c %8.1f%c "
                    "%7.1f%c\n",
                    kFaultCounts[nfi], pef[0], m[0], pef[1], m[1], pef[2],
                    m[2], lat[0], m[0], lat[1], m[1], lat[2], m[2]);
    }
    mark.legend();
}

} // namespace

int
main()
{
    using namespace noc;
    using namespace noc::bench;

    MeshTopology topo(8, 8);
    exp::SweepSpec spec = makeSpec("fig14_pef");
    spec.base.injectionRate = 0.3;
    spec.archs = {std::begin(kArchs), std::end(kArchs)};
    const struct {
        FaultClass cls;
        const char *prefix;
    } classes[] = {{FaultClass::RouterCentricCritical, "crit"},
                   {FaultClass::MessageCentricNonCritical, "noncrit"}};
    for (const auto &c : classes) {
        for (int nf : kFaultCounts) {
            for (std::uint64_t seed : kSeeds) {
                spec.faultSets.push_back(
                    {faultSetLabel(c.prefix, nf, seed),
                     placeRandomFaults(topo, c.cls, nf, 3, seed)});
            }
        }
    }
    exp::SweepResults res = runSweep(spec);

    std::puts("Figure 14: Performance-Energy-Fault (PEF) product, 30% "
              "injection, XY routing");
    panel(spec, res, 0, "(a) critical-region faults");
    panel(spec, res, 1, "(b) non-critical-region faults");
    std::puts("\nPaper: RoCo ~50% better PEF than the generic router "
              "and ~35% better than Path-Sensitive.");
    return 0;
}
