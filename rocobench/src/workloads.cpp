/**
 * @file
 * The benchmark's workload table and result digests.
 *
 * Every workload is a batch of single-process simulations driven by
 * the workload seed. Why each one exists (README.md has the full
 * layer -> metric -> workload table):
 *
 *  open_lowload     most router steps are idle-skipped, so host time
 *                   goes to NIC generation and skip bookkeeping.
 *  open_saturation  just below the Fig 8 knee almost nothing is skipped
 *                   and VA/SA contention is high: router steps dominate.
 *  closed_faults    closed-loop request/reply traffic under Table-3
 *                   critical faults: fault paths, MSHR throttling and a
 *                   long drain; the graceful-degradation numbers.
 *  mesh16_sharded   the only workload on the shard engine (barrier and
 *                   epilogue), with a 256-router working set.
 *
 * Every job sits at or below its saturation knee: past it, latency
 * grows with the run length and swings by tens of percent with the
 * seed, which no bound could absorb.
 */
#include <cstring>

#include "fault/fault_injector.h"
#include "rocobench.h"
#include "topology/mesh.h"

namespace rocobench {

using namespace noc;

namespace {

constexpr RouterArch kArchs[] = {RouterArch::Generic,
                                 RouterArch::PathSensitive,
                                 RouterArch::Roco};

/** splitmix64: decorrelates nearby workload seeds. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::string
jobName(const SimConfig &cfg)
{
    std::string s = toString(cfg.arch);
    s += "/";
    s += toString(cfg.routing);
    s += "/";
    s += toString(cfg.traffic);
    char rate[32];
    std::snprintf(rate, sizeof rate, "@%.2f", cfg.injectionRate);
    s += rate;
    if (cfg.meshWidth != 8)
        s += "/" + std::to_string(cfg.meshWidth) + "x" +
             std::to_string(cfg.meshHeight);
    return s;
}

Job
job(SimConfig cfg, std::vector<FaultSpec> faults = {})
{
    Job j;
    j.name = jobName(cfg);
    j.cfg = std::move(cfg);
    j.faults = std::move(faults);
    return j;
}

/** FNV-1a over raw bytes, so doubles are hashed bit for bit. */
struct Fnv {
    std::uint64_t h = 0xCBF29CE484222325ull;

    template <typename T>
    Fnv &
    add(const T &v)
    {
        unsigned char b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        for (unsigned char c : b) {
            h ^= c;
            h *= 0x100000001B3ull;
        }
        return *this;
    }
};

} // namespace

std::vector<Job>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    SimConfig base;
    base.seed = mix(seed);
    std::vector<Job> jobs;

    if (name == "open_lowload") {
        for (RouterArch arch : kArchs) {
            SimConfig cfg = base;
            cfg.arch = arch;
            cfg.injectionRate = 0.02;
            jobs.push_back(job(cfg));
        }
    } else if (name == "open_saturation") {
        for (RoutingKind routing : {RoutingKind::XY, RoutingKind::Adaptive}) {
            for (RouterArch arch : kArchs) {
                SimConfig cfg = base;
                cfg.arch = arch;
                cfg.routing = routing;
                cfg.injectionRate = 0.25;
                jobs.push_back(job(cfg));
            }
        }
    } else if (name == "closed_faults") {
        // Six fault placements per seed, each faced by all three
        // architectures: the comparison of the paper's Figs 11 and 14,
        // averaged over placements as they are. The MSHR timeout is 10x
        // the fault-free p99 round trip; at the default (8192 cycles)
        // requests to a dead node pin MSHRs so long that the run length
        // swings by +-20% with the placement.
        MeshTopology topo(base.meshWidth, base.meshHeight);
        for (std::uint64_t placement = 0; placement < 6; ++placement) {
            std::vector<FaultSpec> faults = placeRandomFaults(
                topo, FaultClass::RouterCentricCritical, 2, base.vcsPerPort,
                mix(seed ^ (0xFA17ull + placement)));
            for (RouterArch arch : kArchs) {
                SimConfig cfg = base;
                cfg.arch = arch;
                cfg.routing = RoutingKind::XYYX;
                cfg.injectionRate = 0.1;
                cfg.warmupPackets = 250;
                cfg.measurePackets = 2500;
                cfg.svc.enabled = true;
                cfg.svc.mshrTimeout = 1024;
                Job j = job(cfg, faults);
                j.name += "/faults" + std::to_string(placement);
                jobs.push_back(std::move(j));
            }
        }
    } else if (name == "mesh16_sharded") {
        for (double rate : {0.05, 0.12}) {
            for (RouterArch arch : kArchs) {
                SimConfig cfg = base;
                cfg.arch = arch;
                cfg.meshWidth = 16;
                cfg.meshHeight = 16;
                cfg.injectionRate = rate;
                cfg.shards = 2;
                jobs.push_back(job(cfg));
            }
        }
    }
    return jobs;
}

std::uint64_t
inputsDigest(const std::vector<Job> &jobs)
{
    Fnv f;
    for (const Job &j : jobs) {
        f.add(j.cfg.seed);
        for (const FaultSpec &s : j.faults) {
            f.add(s.node).add(s.component).add(s.module);
            f.add(s.portIndex).add(s.vcIndex);
        }
    }
    return f.h;
}

std::uint64_t
statsDigest(const SimResult &r, const FlitLedger &l)
{
    Fnv f;
    f.add(r.cycles).add(r.drainCycles).add(r.timedOut);
    f.add(r.injected).add(r.delivered).add(r.completion);
    f.add(r.avgLatency).add(r.latencyStddev).add(r.maxLatency);
    f.add(r.p50Latency).add(r.p99Latency).add(r.throughputFlits);
    f.add(r.energy.bufferPj).add(r.energy.crossbarPj);
    f.add(r.energy.arbiterPj).add(r.energy.routingPj);
    f.add(r.energy.linkPj).add(r.energy.leakagePj);
    f.add(r.energyPerPacketNj).add(r.edp).add(r.pef);
    f.add(r.rowContention).add(r.colContention);
    f.add(l.created).add(l.retired).add(l.lastDelivery).add(l.flitCycles);
    f.add(l.svcPending);
    for (int c = 0; c < kNumMsgClasses; ++c)
        f.add(l.createdByClass[c]).add(l.retiredByClass[c]);
    f.add(r.replyCount).add(r.mshrThrottled);
    f.add(r.svcTimeouts).add(r.svcLateReplies);
    for (const SimResult::ClassResult &c : r.classes) {
        f.add(c.injected).add(c.delivered).add(c.avgLatency);
        f.add(c.p50Latency).add(c.p99Latency).add(c.avgRtt);
        f.add(c.p99Rtt).add(c.rttCount).add(c.sloViolations);
    }
    return f.h;
}

} // namespace rocobench
