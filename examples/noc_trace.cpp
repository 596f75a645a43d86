/**
 * @file
 * Flit-lifecycle tracing front end: run one configuration with the
 * observability recorder attached and export a Chrome/Perfetto
 * trace_event JSON (load it at https://ui.perfetto.dev) plus the
 * network counter dump, and print the per-stage residency percentiles.
 *
 *   noc_trace [options]
 *     --arch generic|ps|roco   router microarchitecture (default roco)
 *     --mesh <k>               k x k mesh (default 8)
 *     --rate <f>               flits/node/cycle (default 0.15)
 *     --packets <n>            measured packets (default 400)
 *     --warmup <n>             warm-up packets (default 100)
 *     --sample <n>             trace 1 of every n packets (default 1)
 *     --faulty                 inject the Table 3 router-centric
 *                              critical faults on the mid-mesh node
 *     --out <file>             Perfetto JSON path (default
 *                              noc_trace.json; counters go to
 *                              <file>.counters.json)
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "obs/counters.h"
#include "obs/perfetto.h"
#include "obs/recorder.h"
#include "sim/simulator.h"

namespace {

using namespace noc;

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr, "noc_trace: %s (see the file header for "
                         "options)\n", msg.c_str());
    std::exit(2);
}

/**
 * The Table 3 router-centric critical-pathway set, planted on the
 * mid-mesh node: a crossbar fault in the row module and a VA fault in
 * the column module, so a RoCo run shows both degradation modes
 * (module blocked vs served by its sibling) while generic / PS runs
 * show the whole node going off-line.
 */
std::vector<FaultSpec>
midMeshCriticalFaults(const SimConfig &cfg)
{
    NodeId mid = static_cast<NodeId>(
        (cfg.meshHeight / 2) * cfg.meshWidth + cfg.meshWidth / 2);
    FaultSpec xbar;
    xbar.node = mid;
    xbar.component = FaultComponent::Crossbar;
    xbar.module = Module::Row;
    FaultSpec va;
    va.node = mid;
    va.component = FaultComponent::VaArbiter;
    va.module = Module::Column;
    return {xbar, va};
}

} // namespace

int
main(int argc, char **argv)
{
    SimConfig cfg;
    cfg.arch = RouterArch::Roco;
    cfg.routing = RoutingKind::XY;
    cfg.traffic = TrafficKind::Uniform;
    cfg.injectionRate = 0.15;
    cfg.warmupPackets = 100;
    cfg.measurePackets = 400;
    bool faulty = false;
    std::uint64_t sample = 1;
    std::string out = "noc_trace.json";

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
        else if (a == "--mesh") {
            take(i, parseNumber<int>, cfg.meshWidth);
            cfg.meshHeight = cfg.meshWidth;
        }
        else if (a == "--rate")
            take(i, parseNumber<double>, cfg.injectionRate);
        else if (a == "--packets")
            take(i, parseNumber<U64>, cfg.measurePackets);
        else if (a == "--warmup") take(i, parseNumber<U64>, cfg.warmupPackets);
        else if (a == "--sample") take(i, parseNumber<U64>, sample);
        else if (a == "--faulty") faulty = true;
        else if (a == "--out") out = need(i);
        else usage("unknown option " + a);
    }
    cfg.validate();

    std::vector<FaultSpec> faults;
    if (faulty)
        faults = midMeshCriticalFaults(cfg);

    // Attach the recorder explicitly (forced on) rather than via the
    // NOC_TRACE env var, so the tool traces regardless of environment.
    obs::Recorder::Options opt;
    opt.nodes = cfg.meshWidth * cfg.meshHeight;
    opt.meshWidth = cfg.meshWidth;
    opt.meshHeight = cfg.meshHeight;
    opt.arch = cfg.arch;
    opt.sampleEvery = sample;
    auto rec = std::make_shared<obs::Recorder>(opt);

    Simulator sim(cfg, faults);
    sim.attachObserver(rec);
    SimResult r = sim.run();

    std::printf("%dx%d %s | XY | uniform @ %.2f f/n/c%s | sampled 1/%llu\n",
                cfg.meshWidth, cfg.meshHeight, toString(cfg.arch),
                cfg.injectionRate,
                faulty ? " | Table-3 critical faults @ mid-mesh" : "",
                static_cast<unsigned long long>(sample));
    std::printf("  avg latency %.2f cycles, completion %.3f%s\n\n",
                r.avgLatency, r.completion,
                r.timedOut ? " (timed out)" : "");

    obs::Summary s = rec->summary();
    std::printf("  %-14s %10s %8s %8s %8s %8s\n", "stage residency",
                "samples", "p50", "p90", "p99", "p999");
    for (int st = 0; st < obs::kStageCount; ++st) {
        const char *label = obs::residencyLabel(static_cast<obs::Stage>(st));
        if (label == nullptr)
            continue;
        const obs::HdrHistogram &h =
            s.residency[static_cast<std::size_t>(st)];
        std::printf("  %-14s %10llu %8.1f %8.1f %8.1f %8.1f\n", label,
                    static_cast<unsigned long long>(h.count()),
                    h.percentile(0.50), h.percentile(0.90),
                    h.percentile(0.99), h.percentile(0.999));
    }
    std::printf("  %-14s %10llu %8.1f %8.1f %8.1f %8.1f\n", "end-to-end",
                static_cast<unsigned long long>(s.endToEnd.count()),
                s.endToEnd.percentile(0.50), s.endToEnd.percentile(0.90),
                s.endToEnd.percentile(0.99), s.endToEnd.percentile(0.999));

    obs::CounterSummary cs = obs::snapshot(sim.network(), r.cycles);
    std::printf("\n  link util %.4f | crossbar grants/cycle %.4f | "
                "early-eject rate %.4f | mirror-tie rate %.4f\n",
                cs.linkUtilization, cs.crossbarGrantRate,
                cs.earlyEjectionRate, cs.mirrorTieRate);
    if (s.counters.ringDropped > 0)
        std::printf("  (%llu ring slices dropped — raise NOC_TRACE_BUF "
                    "or --sample)\n",
                    static_cast<unsigned long long>(s.counters.ringDropped));

    if (!obs::writePerfetto(*rec, out)) {
        std::fprintf(stderr, "noc_trace: cannot write %s\n", out.c_str());
        return 1;
    }
    std::string cpath = out + ".counters.json";
    std::FILE *cf = std::fopen(cpath.c_str(), "w");
    if (cf != nullptr) {
        std::string cjson = obs::countersJson(cs);
        std::fwrite(cjson.data(), 1, cjson.size(), cf);
        std::fclose(cf);
    }
    std::printf("\nwrote Perfetto trace %s (open at ui.perfetto.dev) and "
                "%s\n", out.c_str(), cpath.c_str());
    return 0;
}
