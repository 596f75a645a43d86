#include "obs/counters.h"

#include <cstdio>

#include "sim/network.h"

namespace noc::obs {

CounterSummary
snapshot(const Network &net, Cycle cycles)
{
    CounterSummary s;
    s.cycles = cycles;
    ActivityCounters act = net.totalActivity();
    s.linkTraversals = act.linkTraversals;
    s.crossbarTraversals = act.crossbarTraversals;
    s.earlyEjections = act.earlyEjections;
    s.mirrorTies = act.saMirrorTies;
    s.saGlobalArbs = act.saGlobalArbs;
    for (NodeId n = 0; n < static_cast<NodeId>(net.numNodes()); ++n)
        s.deliveredFlits += net.nic(n).deliveredFlits();

    int w = net.topology().width();
    int h = net.topology().height();
    // Directed router-to-router links of a w x h mesh.
    std::uint64_t links =
        2ull * static_cast<std::uint64_t>(2 * w * h - w - h);
    if (cycles > 0 && links > 0)
        s.linkUtilization = static_cast<double>(s.linkTraversals) /
                            (static_cast<double>(cycles) *
                             static_cast<double>(links));
    if (cycles > 0)
        s.crossbarGrantRate =
            static_cast<double>(s.crossbarTraversals) /
            (static_cast<double>(cycles) *
             static_cast<double>(net.numNodes()));
    if (s.deliveredFlits > 0)
        s.earlyEjectionRate = static_cast<double>(s.earlyEjections) /
                              static_cast<double>(s.deliveredFlits);
    if (s.saGlobalArbs > 0)
        s.mirrorTieRate = static_cast<double>(s.mirrorTies) /
                          static_cast<double>(s.saGlobalArbs);
    return s;
}

std::string
countersJson(const CounterSummary &s)
{
    std::string out = "{";
    auto num = [&out](const char *key, double v, bool last = false) {
        out += '"';
        out += key;
        out += "\": ";
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        out += buf;
        if (!last)
            out += ", ";
    };
    num("cycles", static_cast<double>(s.cycles));
    num("linkTraversals", static_cast<double>(s.linkTraversals));
    num("crossbarTraversals", static_cast<double>(s.crossbarTraversals));
    num("earlyEjections", static_cast<double>(s.earlyEjections));
    num("mirrorTies", static_cast<double>(s.mirrorTies));
    num("saGlobalArbs", static_cast<double>(s.saGlobalArbs));
    num("deliveredFlits", static_cast<double>(s.deliveredFlits));
    num("linkUtilization", s.linkUtilization);
    num("crossbarGrantRate", s.crossbarGrantRate);
    num("earlyEjectionRate", s.earlyEjectionRate);
    num("mirrorTieRate", s.mirrorTieRate, true);
    out += "}";
    return out;
}

} // namespace noc::obs
