/**
 * @file
 * Ablation: packet length. The paper fixes packets at four 128-bit
 * flits; this sweep shows how serialisation (longer wormholes) and
 * per-packet overheads (shorter ones) move the latency and the
 * energy-per-flit of each architecture.
 */
#include "bench_util.h"

int
main()
{
    using namespace noc;
    using namespace noc::bench;

    printSeed();

    std::puts("Ablation: flits per packet (uniform, XY, 0.25 "
              "flits/node/cycle offered)");
    std::printf("%-8s | %10s %12s %10s | %12s %12s\n", "flits",
                "Generic", "PathSens", "RoCo", "Gen nJ/flit",
                "RoCo nJ/flit");
    hr();
    TimeoutMarks mark;
    for (int len : {1, 2, 4, 8, 16}) {
        double lat[3], nj[3];
        char m[3];
        int i = 0;
        for (RouterArch a : kArchs) {
            SimConfig cfg = paperConfig(a, RoutingKind::XY,
                                        TrafficKind::Uniform, 0.25);
            cfg.flitsPerPacket = len;
            sizeCycleBudget(cfg, cfg.injectionRate);
            Simulator sim(cfg);
            SimResult r = sim.run();
            lat[i] = r.avgLatency;
            nj[i] = r.energyPerPacketNj / len;
            m[i] = mark(r);
            ++i;
        }
        std::printf("%-8d | %9.2f%c %11.2f%c %9.2f%c | %11.4f%c "
                    "%11.4f%c\n",
                    len, lat[0], m[0], lat[1], m[1], lat[2], m[2], nj[0],
                    m[0], nj[2], m[2]);
    }
    mark.legend();
    std::puts("\nExpected: latency grows with serialisation; energy "
              "per flit falls as the\nper-packet RC/VA overhead "
              "amortises, with RoCo cheaper at every length.");
    return 0;
}
