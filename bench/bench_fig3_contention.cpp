/**
 * @file
 * Figure 3: input contention probabilities vs flit injection rate on
 * the 8x8 mesh with uniform traffic — (a) row input under XY, (b)
 * column input under XY, (c) adaptive routing.
 *
 * Expected shape: generic > Path-Sensitive > RoCo at every point, and
 * row contention > column contention under XY (X-first routing).
 */
#include <cstdio>

#include "bench_util.h"

int
main()
{
    using namespace noc;
    using namespace noc::bench;

    exp::SweepSpec spec = makeSpec("fig3_contention");
    spec.archs = {std::begin(kArchs), std::end(kArchs)};
    spec.routings = {RoutingKind::XY, RoutingKind::Adaptive};
    spec.rates = {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
    exp::SweepResults res = runSweep(spec);

    std::puts("Figure 3(a,b): contention at row/column input, XY "
              "routing, uniform traffic");
    std::printf("%-6s | %27s | %27s\n", "", "row input (a)",
                "column input (b)");
    std::printf("%-6s | %8s %9s %8s | %8s %9s %8s\n", "rate", "Generic",
                "PathSens", "RoCo", "Generic", "PathSens", "RoCo");
    hr();
    TimeoutMarks markXy;
    for (std::size_t ra = 0; ra < spec.rates.size(); ++ra) {
        double row[3], col[3];
        char m[3];
        for (std::size_t ar = 0; ar < spec.archs.size(); ++ar) {
            const SimResult &r = res.at(spec, 0, 0, ra, 0, ar);
            row[ar] = r.rowContention;
            col[ar] = r.colContention;
            m[ar] = markXy(r);
        }
        std::printf("%-6.2f | %7.3f%c %8.3f%c %7.3f%c | %7.3f%c %8.3f%c "
                    "%7.3f%c\n",
                    spec.rates[ra], row[0], m[0], row[1], m[1], row[2],
                    m[2], col[0], m[0], col[1], m[1], col[2], m[2]);
    }
    markXy.legend();

    std::puts("\nFigure 3(c): contention with adaptive routing "
              "(row+column combined)");
    std::printf("%-6s %8s %9s %8s\n", "rate", "Generic", "PathSens",
                "RoCo");
    hr();
    TimeoutMarks markAdaptive;
    for (std::size_t ra = 0; ra < spec.rates.size(); ++ra) {
        std::printf("%-6.2f", spec.rates[ra]);
        for (std::size_t ar = 0; ar < spec.archs.size(); ++ar) {
            const SimResult &r = res.at(spec, 1, 0, ra, 0, ar);
            std::printf(" %7.3f%c",
                        (r.rowContention + r.colContention) / 2.0,
                        markAdaptive(r));
        }
        std::puts("");
    }
    markAdaptive.legend();
    std::puts("\nPaper shape: Generic > Path-Sensitive > RoCo "
              "everywhere; row > column under XY.");
    return 0;
}
