/**
 * @file
 * Full command-line front end: run any configuration of the simulator
 * and print a result row (or CSV for scripting).
 *
 *   rocosim_cli [options]
 *     --arch generic|ps|roco         router microarchitecture
 *     --routing xy|xyyx|adaptive     routing algorithm
 *     --traffic <name>               uniform transpose bitcomp hotspot
 *                                    tornado neighbor selfsimilar mpeg
 *                                    bitreverse shuffle trace
 *     --trace <file>                 trace file (with --traffic trace)
 *     --rate <f>                     flits/node/cycle
 *     --mesh <k>                     k x k mesh (default 8)
 *     --packets <n> --warmup <n>     measurement protocol
 *     --seed <n>
 *     --faults <n> --fault-class critical|noncritical --fault-seed <n>
 *     --shards <n>                   run on the sharded engine (src/par);
 *                                    results are bit-identical to serial
 *     --threads <n>                  worker-thread budget; without
 *                                    --shards the run shards itself up
 *                                    to this many ways
 *     --service                      closed-loop request/reply service
 *                                    (src/svc): finite-MSHR endpoints,
 *                                    QoS tiers, per-class stats
 *     --mshrs <n>                    outstanding-request window per node
 *     --service-latency <n>          request-delivery -> reply delay
 *     --high-frac <f>                fraction of requests in the high
 *                                    (latency) QoS tier
 *     --csv                          machine-readable one-line output
 *     --csv-header                   print the CSV column names
 *
 *   e.g. rocosim_cli --arch roco --routing adaptive --rate 0.25
 *        rocosim_cli --arch generic --faults 2 --fault-class critical
 *        rocosim_cli --arch generic --routing xyyx --service --rate 0.1
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "fault/fault_injector.h"
#include "sim/simulator.h"

namespace {

using namespace noc;

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "rocosim_cli: %s (see the file header for "
                         "options)\n", msg.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    SimConfig cfg;
    int numFaults = 0;
    FaultClass faultClass = FaultClass::RouterCentricCritical;
    std::uint64_t faultSeed = 1;
    int threads = 0;
    bool csv = false;

    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage("missing argument value");
        return argv[++i];
    };
    // Reads the value of option argv[i] through @p parse (a spelling
    // table or parseNumber); a value it rejects is a usage error that
    // names the option.
    auto take = [&](int &i, auto parse, auto &out) {
        const std::string opt = argv[i];
        const std::string v = need(i);
        auto parsed = parse(v);
        if (!parsed)
            usage("bad " + opt + " value '" + v + "'");
        out = *parsed;
    };
    using U64 = std::uint64_t;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--arch") take(i, parseArch, cfg.arch);
        else if (a == "--routing") take(i, parseRouting, cfg.routing);
        else if (a == "--traffic") take(i, parseTraffic, cfg.traffic);
        else if (a == "--trace") cfg.traceFile = need(i);
        else if (a == "--rate")
            take(i, parseNumber<double>, cfg.injectionRate);
        else if (a == "--mesh") {
            take(i, parseNumber<int>, cfg.meshWidth);
            cfg.meshHeight = cfg.meshWidth;
        }
        else if (a == "--packets")
            take(i, parseNumber<U64>, cfg.measurePackets);
        else if (a == "--warmup") take(i, parseNumber<U64>, cfg.warmupPackets);
        else if (a == "--seed") take(i, parseNumber<U64>, cfg.seed);
        else if (a == "--faults") take(i, parseNumber<int>, numFaults);
        else if (a == "--fault-seed") take(i, parseNumber<U64>, faultSeed);
        else if (a == "--fault-class") {
            std::string c = need(i);
            if (c == "critical")
                faultClass = FaultClass::RouterCentricCritical;
            else if (c == "noncritical")
                faultClass = FaultClass::MessageCentricNonCritical;
            else
                usage("unknown --fault-class");
        }
        else if (a == "--shards") take(i, parseNumber<int>, cfg.shards);
        else if (a == "--threads") take(i, parseNumber<int>, threads);
        else if (a == "--service") cfg.svc.enabled = true;
        else if (a == "--mshrs")
            take(i, parseNumber<int>, cfg.svc.mshrsPerNode);
        else if (a == "--service-latency")
            take(i, parseNumber<U64>, cfg.svc.serviceLatency);
        else if (a == "--high-frac")
            take(i, parseNumber<double>, cfg.svc.highTierFraction);
        else if (a == "--csv") csv = true;
        else if (a == "--csv-header") {
            std::puts("arch,routing,traffic,rate,faults,latency,p50,"
                      "p99,throughput,completion,nj_per_packet,edp,pef,"
                      "timed_out");
            return 0;
        }
        else usage("unknown option " + a);
    }

    // --threads gives a budget without pinning a shard count: an
    // explicit --shards (or NOC_SHARDS) wins; otherwise the engine
    // shards the mesh up to `threads` ways.  Either way results are
    // bit-identical to serial — these are wall-clock knobs only.
    if (threads > 0 && cfg.shards == 0 && !std::getenv("NOC_SHARDS"))
        cfg.shards = threads;

    cfg.validate();
    MeshTopology topo(cfg.meshWidth, cfg.meshHeight);
    std::vector<FaultSpec> faults;
    if (numFaults > 0) {
        faults = placeRandomFaults(topo, faultClass, numFaults,
                                   cfg.vcsPerPort, faultSeed);
    }

    Simulator sim(cfg, faults);
    SimResult r = sim.run();

    if (csv) {
        std::printf("%s,%s,%s,%.3f,%d,%.3f,%.3f,%.3f,%.4f,%.4f,%.4f,"
                    "%.3f,%.3f,%d\n",
                    toString(cfg.arch), toString(cfg.routing),
                    toString(cfg.traffic), cfg.injectionRate, numFaults,
                    r.avgLatency, r.p50Latency, r.p99Latency,
                    r.throughputFlits, r.completion, r.energyPerPacketNj,
                    r.edp, r.pef, r.timedOut ? 1 : 0);
        return 0;
    }

    std::printf("%dx%d mesh | %s | %s routing | %s @ %.2f f/n/c",
                cfg.meshWidth, cfg.meshHeight, toString(cfg.arch),
                toString(cfg.routing), toString(cfg.traffic),
                cfg.injectionRate);
    if (numFaults)
        std::printf(" | %d %s faults", numFaults,
                    faultClass == FaultClass::RouterCentricCritical
                        ? "critical"
                        : "non-critical");
    std::puts("");
    std::printf("  latency      %8.2f cycles (p50 %.1f, p99 %.1f, max "
                "%.0f)\n", r.avgLatency, r.p50Latency, r.p99Latency,
                r.maxLatency);
    std::printf("  throughput   %8.3f flits/node/cycle\n",
                r.throughputFlits);
    std::printf("  completion   %8.3f\n", r.completion);
    std::printf("  energy       %8.3f nJ/packet (dynamic %.1f%%)\n",
                r.energyPerPacketNj,
                100.0 * r.energy.dynamicPj() / r.energy.totalPj());
    std::printf("  EDP / PEF    %8.2f / %.2f\n", r.edp, r.pef);
    if (cfg.svc.enabled) {
        std::printf("  service      %llu replies | %llu window-deferred "
                    "| %llu timeouts | drained @ cycle %llu\n",
                    static_cast<unsigned long long>(r.replyCount),
                    static_cast<unsigned long long>(r.mshrThrottled),
                    static_cast<unsigned long long>(r.svcTimeouts),
                    static_cast<unsigned long long>(r.drainCycles));
        for (const SimResult::ClassResult &c : r.classes) {
            std::printf("    %-9.*s %6llu pkts | lat %7.2f (p99 %7.1f)",
                        static_cast<int>(c.name.size()), c.name.data(),
                        static_cast<unsigned long long>(c.delivered),
                        c.avgLatency, c.p99Latency);
            if (c.rttCount > 0)
                std::printf(" | rtt %7.2f (p99 %7.1f) | %llu SLO "
                            "misses",
                            c.avgRtt, c.p99Rtt,
                            static_cast<unsigned long long>(
                                c.sloViolations));
            std::puts("");
        }
    }
    if (r.timedOut)
        std::puts("  (run hit the cycle budget: saturated or blocked)");
    return 0;
}
