/**
 * @file
 * Service-mode smoke bench (registered as the `bench_svc_smoke` ctest
 * and run by CI's service job).
 *
 * Exercises the closed-loop request/reply service end to end on every
 * architecture x routing combination, fault-free and under Table-3
 * critical faults, and holds it to the same contracts the open-loop
 * benches enforce:
 *
 *  - serial vs {2, 4}-shard runs bit-identical, including the
 *    per-class latency/RTT accounting and the per-class flit ledger;
 *  - per-class flit conservation at drain (created == retired per
 *    class fault-free; never over-retired under faults) and no
 *    outstanding reply obligations;
 *  - the saturation auto-search returns identical knees for any
 *    SweepRunner pool size.
 *
 * Emits BENCH_svc_smoke.json (knees + per-combo identity verdicts)
 * unless NOC_BENCH_JSON=0.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exp/saturation.h"
#include "fault/fault_injector.h"
#include "svc/protocol.h"

namespace {

using namespace noc;
using namespace noc::bench;

SimConfig
svcConfig(RouterArch arch, RoutingKind routing)
{
    SimConfig cfg = paperConfig(arch, routing, TrafficKind::Uniform, 0.1);
    cfg.meshWidth = 6;
    cfg.meshHeight = 6;
    cfg.warmupPackets = 20;
    cfg.measurePackets = 150;
    cfg.maxCycles = 40000;
    cfg.svc.enabled = true;
    return cfg;
}

struct SvcRun {
    SimResult r;
    FlitLedger ledger;

    bool operator==(const SvcRun &) const = default;
};

SvcRun
svcRun(SimConfig cfg, const std::vector<FaultSpec> &faults, int shards)
{
    cfg.shards = shards;
    Simulator sim(cfg, faults);
    SvcRun out;
    out.r = sim.run();
    out.ledger = sim.network().ledger();
    return out;
}

/** Conservation at drain; faults may strand flits but never over-retire. */
int
checkLedger(const SvcRun &run, bool faultFree, const char *what)
{
    int bad = 0;
    std::uint64_t created = 0, retired = 0;
    for (int c = 0; c < kNumMsgClasses; ++c) {
        created += run.ledger.createdByClass[c];
        retired += run.ledger.retiredByClass[c];
        if (run.ledger.retiredByClass[c] > run.ledger.createdByClass[c]) {
            std::fprintf(stderr, "%s: class %s over-retired\n", what,
                         msgClassName(static_cast<MsgClass>(c)));
            ++bad;
        }
        if (faultFree &&
            run.ledger.retiredByClass[c] != run.ledger.createdByClass[c]) {
            std::fprintf(stderr, "%s: class %s not conserved\n", what,
                         msgClassName(static_cast<MsgClass>(c)));
            ++bad;
        }
    }
    if (created != run.ledger.created || retired != run.ledger.retired) {
        std::fprintf(stderr, "%s: class sums disagree with aggregate\n",
                     what);
        ++bad;
    }
    if (run.ledger.svcPending != 0) {
        std::fprintf(stderr, "%s: reply obligations left at drain\n", what);
        ++bad;
    }
    return bad;
}

int
checkServiceMatrix(std::string &verdicts)
{
    MeshTopology topo(6, 6);
    std::vector<FaultSpec> critFaults = placeRandomFaults(
        topo, FaultClass::RouterCentricCritical, 2, 3, 11);

    int bad = 0;
    int combos = 0;
    for (RouterArch arch : kArchs) {
        for (RoutingKind routing : kRoutings) {
            SimConfig cfg = svcConfig(arch, routing);
            for (int f = 0; f < 2; ++f) {
                const bool faultFree = f == 0;
                const std::vector<FaultSpec> &faults =
                    faultFree ? std::vector<FaultSpec>{} : critFaults;
                char what[96];
                std::snprintf(what, sizeof what, "%s/%s %s",
                              toString(arch), toString(routing),
                              faultFree ? "fault-free" : "2-crit-faults");

                SvcRun serial = svcRun(cfg, faults, 1);
                bad += checkLedger(serial, faultFree, what);
                if (serial.r.replyCount == 0) {
                    std::fprintf(stderr, "%s: no replies delivered\n",
                                 what);
                    ++bad;
                }
                bool same = true;
                for (int shards : {2, 4}) {
                    if (serial != svcRun(cfg, faults, shards)) {
                        std::fprintf(stderr,
                                     "%s diverged at %d shards\n", what,
                                     shards);
                        same = false;
                        ++bad;
                    }
                }
                if (!verdicts.empty())
                    verdicts += ", ";
                verdicts += "{\"combo\": \"";
                verdicts += what;
                verdicts += "\", \"scheme\": \"";
                verdicts += svc::toString(svc::resolveScheme(cfg));
                verdicts += "\", \"identical\": ";
                verdicts += same ? "true" : "false";
                verdicts += "}";
                ++combos;
            }
        }
    }
    std::printf("bench_svc_smoke: %d service combos x {2,4} shards vs "
                "serial, %s\n", combos, bad ? "FAILED" : "identical");
    return bad;
}

int
checkKneeDeterminism(std::string &kneeJson)
{
    exp::SaturationSpec spec;
    spec.base = svcConfig(RouterArch::Generic, RoutingKind::XYYX);
    spec.base.warmupPackets = 10;
    spec.base.measurePackets = 100;
    spec.loRate = 0.02;
    spec.hiRate = 0.4;
    spec.rounds = 2;
    spec.probesPerRound = 2;

    spec.threads = 1;
    exp::SaturationResult serial = exp::findSaturation(spec);
    spec.threads = 4;
    exp::SaturationResult pooled = exp::findSaturation(spec);

    int bad = 0;
    if (serial.knees.size() != pooled.knees.size())
        ++bad;
    for (std::size_t i = 0; !bad && i < serial.knees.size(); ++i) {
        if (serial.knees[i].kneeRate != pooled.knees[i].kneeRate ||
            serial.knees[i].zeroLoadLatency !=
                pooled.knees[i].zeroLoadLatency ||
            serial.knees[i].saturated != pooled.knees[i].saturated)
            ++bad;
    }
    if (bad)
        std::fprintf(stderr,
                     "saturation knees diverged across thread counts\n");
    else
        std::printf("bench_svc_smoke: knee search identical at 1 and 4 "
                    "threads (%zu series)\n", serial.knees.size());

    // clear + push_back: GCC 12 misreports operator=(const char *) on a
    // by-reference string as an overlapping memcpy (-Wrestrict).
    kneeJson.clear();
    kneeJson.push_back('[');
    for (std::size_t i = 0; i < serial.knees.size(); ++i) {
        const exp::KneeEstimate &k = serial.knees[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s{\"series\": \"%s\", \"kneeRate\": %.6f, "
                      "\"saturated\": %s}",
                      i ? ", " : "", k.series.c_str(), k.kneeRate,
                      k.saturated ? "true" : "false");
        kneeJson += buf;
    }
    kneeJson += "]";
    return bad;
}

} // namespace

int
main()
{
    printSeed();
    std::string verdicts, kneeJson;
    int bad = checkServiceMatrix(verdicts);
    bad += checkKneeDeterminism(kneeJson);

    std::string json = "{\"schema\": 1, \"bench\": \"svc_smoke\", "
                       "\"combos\": [" + verdicts + "], \"knees\": " +
                       kneeJson + ", \"passed\": " +
                       (bad ? "false" : "true") + "}\n";
    exp::writeBenchJson("svc_smoke", json);

    std::printf("bench_svc_smoke: %s\n", bad ? "FAILED" : "passed");
    return bad ? 1 : 0;
}
