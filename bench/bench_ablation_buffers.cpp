/**
 * @file
 * Ablation: buffer-depth sensitivity. The paper fixes every router at
 * 60 flits of storage (4-deep generic, 5-deep modular); this sweep
 * shows how each architecture's latency responds to deeper or
 * shallower VCs at 30% uniform load.
 */
#include "bench_util.h"

int
main()
{
    using namespace noc;
    using namespace noc::bench;

    printSeed();

    std::puts("Ablation: VC buffer depth vs latency (uniform, XY, "
              "30% injection)");
    std::printf("%-8s %10s %12s %10s\n", "depth", "Generic", "PathSens",
                "RoCo");
    hr();
    TimeoutMarks mark;
    for (int depth : {2, 3, 4, 5, 6, 8}) {
        std::printf("%-8d", depth);
        for (RouterArch a : kArchs) {
            SimConfig cfg = paperConfig(a, RoutingKind::XY,
                                        TrafficKind::Uniform, 0.3);
            cfg.bufferDepthGeneric = depth;
            cfg.bufferDepthModular = depth;
            Simulator sim(cfg);
            SimResult r = sim.run();
            std::printf(" %9.2f%c", r.avgLatency, mark(r));
        }
        std::puts("");
    }
    mark.legend();
    std::puts("\nDepths below the credit round-trip (~5 cycles) "
              "throttle single-VC flows;\nthe paper's 4/5-deep choices "
              "sit right at the knee.");
    return 0;
}
