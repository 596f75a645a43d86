/**
 * @file
 * The traced run: the serial cycle loop of Simulator::run, driven from
 * the benchmark through public calls only, with a span per cycle and
 * host time taken around each layer's calls.
 *
 * It must stay a faithful copy of Simulator::run's serial branch and
 * result reduction: main.cpp compares its statistics, ledger and step
 * counts with an untraced run and counts any difference as a failure,
 * so a drift here shows up as a broken harness, never as wrong layer
 * numbers.
 */
#include <algorithm>
#include <chrono>

#include "rocobench.h"
#include "sim/run_control.h"
#include "svc/service.h"
#include "topology/partition.h"

namespace rocobench {

using namespace noc;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
clockReadNs()
{
    // Fastest of five batches: the cost of the read itself, not of a
    // co-tenant's interference during it.
    constexpr int kReads = 200000;
    double best = 0;
    for (int rep = 0; rep < 5; ++rep) {
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < kReads; ++i)
            (void)nowNs();
        const double per = static_cast<double>(nowNs() - t0) / kReads;
        best = rep == 0 ? per : std::min(best, per);
    }
    return best;
}

LayerTimes &
LayerTimes::operator+=(const LayerTimes &o)
{
    nicNs += o.nicNs;
    invariantNs += o.invariantNs;
    reduceNs += o.reduceNs;
    for (int i = 0; i < 3; ++i) {
        routerNs[i] += o.routerNs[i];
        phaseNs[i] += o.phaseNs[i];
    }
    return *this;
}

LayerCounts &
LayerCounts::operator+=(const LayerCounts &o)
{
    cycles += o.cycles;
    generateCalls += o.generateCalls;
    packetsGenerated += o.packetsGenerated;
    stepsScheduled += o.stepsScheduled;
    drainCycles += o.drainCycles;
    flitsDelivered += o.flitsDelivered;
    nicLoops += o.nicLoops;
    invariantChecks += o.invariantChecks;
    activity += o.activity;
    saDenied += o.saDenied;
    saTrials += o.saTrials;
    for (int i = 0; i < 3; ++i) {
        stepsExecuted[i] += o.stepsExecuted[i];
        clockReads[i] += o.clockReads[i];
    }
    return *this;
}

namespace {

/** Simulator::run's post-loop reduction, in the same order. */
SimResult
reduce(const Network &net, const SimConfig &cfg, const RunControl &ctl,
       Cycle now)
{
    SimResult r;
    r.timedOut = now >= cfg.maxCycles;
    r.cycles = ctl.measuring() ? now - ctl.measureStart() : now;

    RunningStat lat;
    Histogram hist(2.0, 1024);
    for (int i = 0; i < net.numNodes(); ++i) {
        lat.merge(net.nic(static_cast<NodeId>(i)).latency());
        hist.merge(net.nic(static_cast<NodeId>(i)).latencyHistogram());
    }
    r.avgLatency = lat.mean();
    r.latencyStddev = lat.stddev();
    r.maxLatency = lat.max();
    r.p50Latency = hist.percentile(0.50);
    r.p99Latency = hist.percentile(0.99);

    r.injected = net.totalInjectedMeasured();
    r.delivered = net.totalDeliveredMeasured();
    r.completion = r.injected ? static_cast<double>(r.delivered) /
                                    static_cast<double>(r.injected)
                              : 1.0;

    std::uint64_t deliveredFlits = 0;
    for (int i = 0; i < net.numNodes(); ++i)
        deliveredFlits += net.nic(static_cast<NodeId>(i)).deliveredFlits();
    r.throughputFlits =
        r.cycles ? static_cast<double>(deliveredFlits) /
                       static_cast<double>(r.cycles) / net.numNodes()
                 : 0.0;

    EnergyModel em(EnergyParams::forArch(cfg.arch, cfg));
    r.energy = em.compute(net.totalActivity(), r.cycles, net.numNodes());
    r.energyPerPacketNj = EnergyModel::perPacketNj(
        r.energy, std::max<std::uint64_t>(r.delivered, 1));
    r.edp = r.avgLatency * r.energyPerPacketNj;
    r.pef = r.completion > 0 ? r.edp / r.completion : 0.0;

    r.rowContention = net.rowContention().ratio();
    r.colContention = net.colContention().ratio();
    r.drainCycles = now;

    if (cfg.svc.enabled) {
        svc::ClassStats merged[kNumMsgClasses];
        for (int i = 0; i < net.numNodes(); ++i) {
            const Nic &nic = net.nic(static_cast<NodeId>(i));
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
    return r;
}

/** Folds the counters the measurement-window reset is about to clear. */
void
accumulateProbes(const Network &net, LayerCounts &n)
{
    n.activity += net.totalActivity();
    RatioStat row = net.rowContention(), col = net.colContention();
    n.saDenied += row.hits() + col.hits();
    n.saTrials += row.trials() + col.trials();
}

} // namespace

TracedRun
runTraced(Simulator &sim, const SimConfig &cfg, std::uint32_t jobIndex,
          std::vector<CycleSpan> &spans)
{
    Network &net = sim.network();
    const int nodes = net.numNodes();
    const int arch = static_cast<int>(cfg.arch);
    const bool skip = net.idleSkipEnabled();

    // Step order: schedule phase, ascending id within a phase — the
    // order Network::step and the shard engine both use.
    std::vector<NodeId> order;
    for (int ph = 0; ph < kNumStepPhases; ++ph) {
        for (NodeId id = 0; id < static_cast<NodeId>(nodes); ++id) {
            Coord c = net.topology().coord(id);
            if (stepPhase(c.x, c.y) == ph)
                order.push_back(id);
        }
    }

    TracedRun out;
    LayerTimes &t = out.t;
    LayerCounts &n = out.n;
    RunControl ctl(cfg);
    Cycle now = 0;
    const std::int64_t loopStart = nowNs();

    while (now < cfg.maxCycles) {
        CycleSpan span;
        span.job = jobIndex;
        span.cycle = static_cast<std::uint32_t>(now);
        const std::int64_t c0 = nowNs();
        span.beginNs = c0 - loopStart;

        if (ctl.beginCycle(now, net.traceExhausted(),
                           net.packetsGenerated())) {
            accumulateProbes(net, n);
            net.resetActivity();
            net.resetContention();
        }
        const bool generating = ctl.generating();
        span.phase = !generating ? 2 : ctl.measuring() ? 1 : 0;

        // Network::step, call for call.
        std::uint64_t spansTimed = 0;
        if (generating || cfg.svc.enabled) {
            ++spansTimed;
            ++n.nicLoops;
            std::uint64_t made = 0;
            const std::int64_t g0 = nowNs();
            for (int i = 0; i < nodes; ++i) {
                made += static_cast<std::uint64_t>(
                    net.nic(static_cast<NodeId>(i))
                        .generate(now, ctl.measuring(), generating));
            }
            span.nicNs = static_cast<std::int32_t>(nowNs() - g0);
            net.addGenerated(made);
            n.generateCalls += static_cast<std::uint64_t>(nodes);
            n.packetsGenerated += made;
            span.packets = static_cast<std::uint16_t>(made);
        }
        std::uint64_t executed = 0;
        std::int64_t stepNs = 0;
        for (std::uint32_t i = 0; i < order.size(); ++i) {
            const NodeId id = order[i];
            std::atomic<std::uint8_t> &flag = net.activeFlag(id);
            if (skip && !flag.load(std::memory_order_relaxed))
                continue;
            Router &r = net.router(id);
            const std::int64_t s0 = nowNs();
            r.step(now);
            stepNs += nowNs() - s0;
            ++executed;
            if (skip && !r.hasLocalWork())
                flag.store(0, std::memory_order_relaxed);
        }
        net.addRouterSteps(executed, order.size());
        ++now;

        if ((now & 1023u) == 0) {
            ++spansTimed;
            ++n.invariantChecks;
            const std::int64_t i0 = nowNs();
            net.checkProtocolInvariants(now);
            span.invariantNs = static_cast<std::int32_t>(nowNs() - i0);
        }
        bool stop = !ctl.generating() &&
                    ctl.endCycle(now, net.quiescent(),
                                 net.lastDeliveryCycle(),
                                 net.ledger().svcPending);

        span.steps = static_cast<std::uint16_t>(executed);
        span.routerNs = static_cast<std::int32_t>(stepNs);
        span.endNs = nowNs() - loopStart;
        const std::int64_t cycleNs = span.endNs - span.beginNs;
        t.phaseNs[span.phase] += cycleNs;
        t.nicNs += span.nicNs;
        t.routerNs[arch] += stepNs;
        t.invariantNs += span.invariantNs;
        n.stepsExecuted[arch] += executed;
        n.stepsScheduled += order.size();
        n.clockReads[span.phase] += 1 + 2 * (spansTimed + executed);
        spans.push_back(span);
        if (stop)
            break; // drained, or blocked past the idle window
    }
    net.checkProtocolInvariants(now); // final audit at drain

    n.cycles = now;
    n.drainCycles = ctl.generating() ? 0 : now - ctl.generationEnd();
    const std::int64_t r0 = nowNs();
    out.r = reduce(net, cfg, ctl, now);
    t.reduceNs = nowNs() - r0;
    accumulateProbes(net, n);
    for (int i = 0; i < nodes; ++i)
        n.flitsDelivered += net.nic(static_cast<NodeId>(i)).deliveredFlits();
    out.ledger = net.ledger();
    out.stepsExecuted = net.routerStepsExecuted();
    out.stepsScheduled = net.routerStepsScheduled();
    return out;
}

} // namespace rocobench
