#include "sim/simulator.h"

#include <algorithm>
#include <cstdlib>

#include "check/deadlock.h"
#include "model/liveness.h"
#include "obs/perfetto.h"
#include "obs/recorder.h"
#include "par/shard_engine.h"
#include "sim/run_control.h"
#include "svc/service.h"

namespace noc {

const SimConfig &
Simulator::validated(const SimConfig &cfg)
{
    // Prove the (arch, routing, VC) combination deadlock-free AND
    // starvation/livelock-free before a single cycle is simulated
    // (both memoized; opt-out via NOC_SKIP_CHECK).
    check::validateConfigOrDie(cfg);
    model::validateConfigLiveness(cfg);
    return cfg;
}

Simulator::Simulator(const SimConfig &cfg,
                     const std::vector<FaultSpec> &faults)
    : cfg_(cfg), net_(validated(cfg), faults)
{
}

void
Simulator::attachObserver(std::shared_ptr<obs::Recorder> obs)
{
    obs_ = std::move(obs);
    net_.setObserver(obs_.get());
}

SimResult
Simulator::run()
{
    // Env-driven tracing (NOC_TRACE=1): only consulted when no recorder
    // was attached programmatically.
    if (!obs_) {
        if (auto rec = obs::Recorder::fromEnv(cfg_))
            attachObserver(std::move(rec));
    }

    // Shard-ownership race checker (par/race_check.h), fail-fast, when
    // NOC_RACE_CHECK=1. A checker attached programmatically (tests)
    // takes precedence and keeps its own fail-fast policy.
    std::unique_ptr<par::RaceChecker> race;
    if (net_.raceChecker() == nullptr &&
        par::RaceChecker::enabledFromEnv()) {
        race = std::make_unique<par::RaceChecker>(cfg_.meshWidth,
                                                  cfg_.meshHeight);
        race->setFailFast(true);
        net_.setRaceChecker(race.get());
    }

    // The run loop, at every shard count (par/shard_engine.h).
    RunControl ctl(cfg_);
    const par::RunOutcome out = par::run(net_, obs_.get(), ctl);
    const Cycle now = out.endCycle;

    if (race)
        net_.setRaceChecker(nullptr);

    SimResult r;
    r.timedOut = out.timedOut;
    r.cycles = ctl.measuring() ? now - ctl.measureStart() : now;

    RunningStat lat;
    Histogram hist(2.0, 1024);
    for (int i = 0; i < net_.numNodes(); ++i) {
        lat.merge(net_.nic(static_cast<NodeId>(i)).latency());
        hist.merge(net_.nic(static_cast<NodeId>(i)).latencyHistogram());
    }
    r.avgLatency = lat.mean();
    r.latencyStddev = lat.stddev();
    r.maxLatency = lat.max();
    r.p50Latency = hist.percentile(0.50);
    r.p99Latency = hist.percentile(0.99);

    r.injected = net_.totalInjectedMeasured();
    r.delivered = net_.totalDeliveredMeasured();
    r.completion = r.injected
                       ? static_cast<double>(r.delivered) /
                             static_cast<double>(r.injected)
                       : 1.0;

    std::uint64_t deliveredFlits = 0;
    for (int i = 0; i < net_.numNodes(); ++i)
        deliveredFlits += net_.nic(static_cast<NodeId>(i)).deliveredFlits();
    r.throughputFlits =
        r.cycles ? static_cast<double>(deliveredFlits) /
                       static_cast<double>(r.cycles) / net_.numNodes()
                 : 0.0;

    EnergyModel em(EnergyParams::forArch(cfg_.arch, cfg_));
    r.energy = em.compute(net_.totalActivity(), r.cycles,
                          net_.numNodes());
    r.energyPerPacketNj = EnergyModel::perPacketNj(
        r.energy, std::max<std::uint64_t>(r.delivered, 1));

    r.edp = r.avgLatency * r.energyPerPacketNj;
    r.pef = r.completion > 0 ? r.edp / r.completion : 0.0;

    r.rowContention = net_.rowContention().ratio();
    r.colContention = net_.colContention().ratio();
    r.drainCycles = now;

    if (cfg_.svc.enabled) {
        // Per-class merge in node order, so service results are the
        // same bytes at every shard count.
        svc::ClassStats merged[kNumMsgClasses];
        for (int i = 0; i < net_.numNodes(); ++i) {
            const Nic &nic = net_.nic(static_cast<NodeId>(i));
            if (const svc::ClassStats *cs = nic.classStats()) {
                for (int c = 0; c < kNumMsgClasses; ++c)
                    merged[c].merge(cs[c]);
            }
            if (const svc::ServiceEndpoint *ep = nic.endpoint()) {
                r.mshrThrottled += ep->throttled();
                r.svcTimeouts += ep->timeouts();
                r.svcLateReplies += ep->lateReplies();
            }
        }
        r.classes.resize(kNumMsgClasses);
        for (int c = 0; c < kNumMsgClasses; ++c) {
            SimResult::ClassResult &cr = r.classes[c];
            const svc::ClassStats &m = merged[c];
            cr.name = msgClassName(static_cast<MsgClass>(c));
            cr.injected = m.injectedPackets;
            cr.delivered = m.deliveredPackets;
            cr.avgLatency = m.latency.mean();
            cr.p50Latency = m.latencyHist.percentile(0.50);
            cr.p99Latency = m.latencyHist.percentile(0.99);
            cr.avgRtt = m.rtt.mean();
            cr.p99Rtt = m.rttHist.percentile(0.99);
            cr.rttCount = m.rttHist.count();
            cr.sloViolations = m.sloViolations;
            if (isReplyClass(static_cast<MsgClass>(c)))
                r.replyCount += m.deliveredPackets;
        }
    }

    // NOC_TRACE_OUT=<path>: dump the run's Perfetto trace on exit.
    if (obs_) {
        if (const char *out = std::getenv("NOC_TRACE_OUT");
            out != nullptr && *out != '\0') {
            obs::writePerfetto(*obs_, out);
        }
    }
    return r;
}

} // namespace noc
