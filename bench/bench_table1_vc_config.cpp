/**
 * @file
 * Table 1: VC buffer configuration of the RoCo router for the three
 * routing algorithms.
 */
#include <cstdio>

#include "check/slot_rules.h"

int
main()
{
    using namespace noc;
    using namespace noc::check;
    std::puts("Table 1: VC Buffer Configuration for the Three Routing "
              "Algorithms");
    std::printf("%-9s | %-18s | %-18s | %-18s | %-18s\n", "", "Row P1",
                "Row P2", "Col P1", "Col P2");
    for (RoutingKind k :
         {RoutingKind::Adaptive, RoutingKind::XYYX, RoutingKind::XY}) {
        RocoVcConfig c = RocoVcConfig::forRouting(k);
        std::printf("%-9s |", toString(k));
        for (int m = 0; m < 2; ++m) {
            for (int p = 0; p < kPortsPerModule; ++p) {
                char cell[32];
                std::snprintf(cell, sizeof cell, " %s %s %s",
                              toString(c.at(static_cast<Module>(m), p, 0)),
                              toString(c.at(static_cast<Module>(m), p, 1)),
                              toString(c.at(static_cast<Module>(m), p, 2)));
                std::printf(" %-18s|", cell);
            }
        }
        std::puts("");
    }
    std::puts("\nPaper: Adaptive {dx,tyx,Injxy|dx,dx,tyx|dy,txy,Injyx|"
              "dy,txy,txy}");
    std::puts("       XY-YX    {dx,tyx,Injxy|dx,dx,tyx|dy,txy,Injyx|"
              "dy,dy,txy}");
    std::puts("       XY       {dx,dx,Injxy|dx,dx,Injxy|dy,txy,Injyx|"
              "dy,dy,txy}");
    return 0;
}
