/**
 * @file
 * Figure 13: energy per packet (nJ) at 30% injection for uniform,
 * self-similar and transpose traffic. Expected: RoCo about 20% below
 * the generic router and about 6% below the Path-Sensitive router.
 */
#include "bench_util.h"

int
main()
{
    using namespace noc;
    using namespace noc::bench;

    exp::SweepSpec spec = makeSpec("fig13_energy");
    spec.base.injectionRate = 0.3;
    spec.archs = {std::begin(kArchs), std::end(kArchs)};
    spec.traffics = {TrafficKind::Uniform, TrafficKind::SelfSimilar,
                     TrafficKind::Transpose};
    exp::SweepResults res = runSweep(spec);

    std::puts("Figure 13: energy per packet (nJ), 30% injection, XY "
              "routing");
    std::printf("%-14s %10s %12s %10s %18s\n", "traffic", "Generic",
                "PathSens", "RoCo", "RoCo vs Gen/PS");
    hr();
    TimeoutMarks mark;
    for (std::size_t tr = 0; tr < spec.traffics.size(); ++tr) {
        double e[3];
        char m[3];
        for (std::size_t ar = 0; ar < spec.archs.size(); ++ar) {
            const SimResult &r = res.at(spec, 0, tr, 0, 0, ar);
            e[ar] = r.energyPerPacketNj;
            m[ar] = mark(r);
        }
        std::printf("%-14s %9.3f%c %11.3f%c %9.3f%c   -%4.1f%% / "
                    "-%4.1f%%\n",
                    toString(spec.traffics[tr]), e[0], m[0], e[1], m[1],
                    e[2], m[2], 100.0 * (1.0 - e[2] / e[0]),
                    100.0 * (1.0 - e[2] / e[1]));
    }
    mark.legend();
    std::puts("\nPaper: ~20% lower than generic, ~6% lower than "
              "Path-Sensitive.");
    return 0;
}
