/**
 * @file
 * Ablation: how much of the RoCo advantage comes from early ejection?
 *
 * Early ejection saves two cycles at the destination and removes
 * ejecting flits from switch allocation. We cannot toggle it without
 * changing the microarchitecture, so this ablation isolates the effect
 * with traffic whose ejection share varies: nearest-neighbour traffic
 * (1-hop packets, ejection dominates) against uniform (~5.3 hops,
 * ejection amortised). The RoCo-vs-generic latency gap must widen as
 * the ejection share grows.
 */
#include "bench_util.h"

int
main()
{
    using namespace noc;
    using namespace noc::bench;

    printSeed();

    std::puts("Ablation: early-ejection contribution via ejection-heavy"
              " traffic (XY routing)");
    std::printf("%-18s %10s %10s %14s\n", "traffic", "Generic", "RoCo",
                "gap (cycles)");
    hr();
    TimeoutMarks mark;
    for (TrafficKind t :
         {TrafficKind::NearestNeighbor, TrafficKind::Uniform}) {
        for (double rate : {0.1, 0.2, 0.3}) {
            SimResult g = run(RouterArch::Generic, RoutingKind::XY, t,
                              rate);
            SimResult rc = run(RouterArch::Roco, RoutingKind::XY, t,
                               rate);
            char label[40];
            std::snprintf(label, sizeof label, "%s @%.1f", toString(t),
                          rate);
            std::printf("%-18s %9.2f%c %9.2f%c %14.2f\n", label,
                        g.avgLatency, mark(g), rc.avgLatency, mark(rc),
                        g.avgLatency - rc.avgLatency);
        }
    }
    mark.legend();
    std::puts("\nExpected: the absolute gap is largest for 1-hop "
              "nearest-neighbour packets,\nwhere the 2-cycle ejection "
              "saving is the whole journey's overhead.");
    return 0;
}
