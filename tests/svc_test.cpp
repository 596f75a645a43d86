/**
 * @file
 * Closed-loop traffic service (src/svc): message-class encoding, the
 * finite-MSHR endpoint state machine, protocol-deadlock proofs with
 * dependence edges (positive and negative), closed-loop conservation,
 * drain semantics with in-flight replies, serial/sharded bit identity,
 * and the saturation auto-search.
 */
#include <gtest/gtest.h>

#include "check/deadlock.h"
#include "common/flit.h"
#include "exp/saturation.h"
#include "fault/fault_injector.h"
#include "result_print.h"
#include "sim/run_control.h"
#include "sim/simulator.h"
#include "svc/protocol.h"
#include "svc/service.h"
#include "topology/mesh.h"

namespace noc {
namespace {

SimConfig
svcConfig()
{
    SimConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.warmupPackets = 20;
    cfg.measurePackets = 150;
    cfg.maxCycles = 200000;
    cfg.injectionRate = 0.1;
    cfg.svc.enabled = true;
    return cfg;
}

// ---------------------------------------------------------------- class byte

TEST(MsgClassTest, EncodingRoundTrips)
{
    for (MsgClass c = 0; c < kNumMsgClasses; ++c) {
        EXPECT_EQ(makeMsgClass(isReplyClass(c), tierOfClass(c)), c);
        EXPECT_EQ(clsIndex(c), static_cast<int>(c));
    }
    EXPECT_FALSE(isReplyClass(kClsReqHigh));
    EXPECT_TRUE(isReplyClass(kClsRepHigh));
    EXPECT_EQ(tierOfClass(kClsReqBulk), 1);
    EXPECT_EQ(tierOfClass(kClsRepHigh), 0);
    EXPECT_STREQ(msgClassName(kClsReqHigh), "req-high");
    EXPECT_STREQ(msgClassName(kClsRepBulk), "rep-bulk");
}

TEST(MsgClassTest, OpenLoopFlitsDefaultToRequestHigh)
{
    Flit f;
    EXPECT_EQ(f.cls, kClsReqHigh);
}

// ------------------------------------------------------------- endpoint FSM

ServiceConfig
tinyEndpointConfig()
{
    ServiceConfig svc;
    svc.enabled = true;
    svc.mshrsPerNode = 2;
    svc.serviceLatency = 12;
    svc.mshrTimeout = 20;
    return svc;
}

TEST(ServiceEndpointTest, WindowBoundsOutstandingRequests)
{
    svc::ServiceEndpoint ep(tinyEndpointConfig());
    EXPECT_TRUE(ep.canInject());
    ep.onRequestInjected(101, 0, 0);
    ep.onRequestInjected(102, 1, 1);
    EXPECT_FALSE(ep.canInject());
    EXPECT_EQ(ep.outstanding(), 2);

    auto done = ep.onReplyDelivered(101);
    EXPECT_TRUE(done.known);
    EXPECT_EQ(done.injectCycle, 0u);
    EXPECT_EQ(done.tier, 0);
    EXPECT_TRUE(ep.canInject());
    EXPECT_EQ(ep.outstanding(), 1);
}

TEST(ServiceEndpointTest, RepliesFireAfterServiceLatencyInFifoOrder)
{
    svc::ServiceEndpoint ep(tinyEndpointConfig());
    Flit tail;
    tail.src = 3;
    tail.packetId = 77;
    tail.cls = kClsReqBulk;
    tail.measured = true;
    ep.onRequestDelivered(tail, 10);

    EXPECT_EQ(ep.dueReply(21), nullptr); // 10 + 12 = 22
    const svc::ServiceEndpoint::PendingReply *r = ep.dueReply(22);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->requester, 3u);
    EXPECT_EQ(r->packetId, 77u);
    EXPECT_EQ(r->cls, kClsRepBulk); // direction flipped, tier kept
    EXPECT_TRUE(r->measured);
    ep.popReply();
    EXPECT_EQ(ep.pendingReplies(), 0u);
}

TEST(ServiceEndpointTest, TimeoutReclaimsInOrderAndLateReplyIsTolerated)
{
    svc::ServiceEndpoint ep(tinyEndpointConfig()); // timeout = 20
    ep.onRequestInjected(1, 0, 0);
    ep.onRequestInjected(2, 10, 1);

    ep.reclaim(19); // nothing expires yet
    EXPECT_EQ(ep.timeouts(), 0u);
    ep.reclaim(25); // pid 1 is 25 cycles old, pid 2 only 15
    EXPECT_EQ(ep.timeouts(), 1u);
    EXPECT_EQ(ep.outstanding(), 1);

    auto late = ep.onReplyDelivered(1);
    EXPECT_FALSE(late.known);
    EXPECT_EQ(ep.lateReplies(), 1u);

    auto ok = ep.onReplyDelivered(2);
    EXPECT_TRUE(ok.known);
    EXPECT_EQ(ok.injectCycle, 10u);
    EXPECT_EQ(ok.tier, 1);
    EXPECT_EQ(ep.outstanding(), 0);
}

// ------------------------------------------------------------- run control

TEST(RunControlTest, PendingRepliesBlockStopEvenPastIdleWindow)
{
    SimConfig cfg;
    cfg.warmupPackets = 0;
    cfg.measurePackets = 0;
    RunControl ctl(cfg);
    ctl.beginCycle(0, false, 1); // generation target met immediately
    ASSERT_FALSE(ctl.generating());

    Cycle far = 10 * RunControl::kIdleWindow;
    // A scheduled-but-uninjected reply blocks both stop paths.
    EXPECT_FALSE(ctl.endCycle(far, true, 0, 1));
    EXPECT_FALSE(ctl.endCycle(far, false, 0, 1));
    // Without obligations the usual rules apply.
    EXPECT_TRUE(ctl.endCycle(far, true, 0, 0));
    EXPECT_TRUE(ctl.endCycle(far, false, 0, 0));
    EXPECT_FALSE(ctl.endCycle(RunControl::kIdleWindow, false, 1, 0));
}

// ------------------------------------------------------- scheme resolution

TEST(ProtocolSchemeTest, ResolutionMatrix)
{
    SimConfig cfg = svcConfig();

    cfg.arch = RouterArch::Generic;
    cfg.routing = RoutingKind::XYYX;
    EXPECT_EQ(svc::resolveScheme(cfg), svc::AvoidanceScheme::ClassPartition);

    // The partition needs the XYYX order split.
    cfg.routing = RoutingKind::XY;
    EXPECT_EQ(svc::resolveScheme(cfg), svc::AvoidanceScheme::EndpointReserve);

    // RoCo's module-keyed injection classes cannot express it (straight
    // XY requests share InjYx with replies), so RoCo resolves to the
    // endpoint argument even under XYYX.
    cfg.arch = RouterArch::Roco;
    cfg.routing = RoutingKind::XYYX;
    EXPECT_EQ(svc::resolveScheme(cfg), svc::AvoidanceScheme::EndpointReserve);

    cfg.arch = RouterArch::PathSensitive;
    EXPECT_EQ(svc::resolveScheme(cfg), svc::AvoidanceScheme::EndpointReserve);

    cfg.arch = RouterArch::Generic;
    cfg.svc.classVcPartition = false;
    cfg.svc.endpointReserve = false;
    EXPECT_EQ(svc::resolveScheme(cfg), svc::AvoidanceScheme::SharedPool);
}

// --------------------------------------------------------- protocol proofs

constexpr RoutingKind kAllRoutings[] = {RoutingKind::XY, RoutingKind::XYYX,
                                        RoutingKind::Adaptive};

TEST(ServiceProver, EndpointReserveReducesToNetworkProofs)
{
    MeshTopology topo(5, 5);
    for (RoutingKind kind : kAllRoutings) {
        check::ProofResult g = check::proveServiceGeneric(
            topo, kind, 3, svc::AvoidanceScheme::EndpointReserve);
        EXPECT_TRUE(g.deadlockFree) << g.summary() << g.renderCycle();

        check::ProofResult r = check::proveServiceRoco(
            topo, kind, check::RocoCheckOptions::shipped(kind),
            svc::AvoidanceScheme::EndpointReserve);
        EXPECT_TRUE(r.deadlockFree) << r.summary() << r.renderCycle();

        check::ProofResult p = check::proveServicePathSensitive(
            topo, kind, 3, svc::AvoidanceScheme::EndpointReserve);
        EXPECT_TRUE(p.deadlockFree) << p.summary() << p.renderCycle();
        EXPECT_TRUE(p.viaEscape);
        EXPECT_NE(p.summary().find("endpoint-reserve"), std::string::npos);
    }
}

TEST(ServiceProver, GenericClassPartitionIsStrictlyAcyclic)
{
    // The structural argument: requests pinned to XY slots, replies to
    // YX slots, the Local port split the same way — protocol edges
    // included, the graph stays acyclic with no escape tier needed.
    MeshTopology topo(5, 5);
    check::ProofResult r = check::proveServiceGeneric(
        topo, RoutingKind::XYYX, 3, svc::AvoidanceScheme::ClassPartition);
    EXPECT_TRUE(r.deadlockFree) << r.summary() << r.renderCycle();
    EXPECT_FALSE(r.viaEscape);
    EXPECT_NE(r.summary().find("class-partition"), std::string::npos);
}

TEST(ServiceProver, GenericSharedPoolProducesRequestReplyCycle)
{
    // The textbook protocol deadlock: with one shared slot pool the
    // request-arrival ⇒ reply-injection edges close a cycle between
    // any neighbour pair. The prover must exhibit it concretely.
    MeshTopology topo(5, 5);
    for (RoutingKind kind : kAllRoutings) {
        check::ProofResult r = check::proveServiceGeneric(
            topo, kind, 3, svc::AvoidanceScheme::SharedPool);
        EXPECT_FALSE(r.deadlockFree) << r.summary();
        ASSERT_FALSE(r.cycle.empty());
        for (const check::CycleNode &cn : r.cycle) {
            EXPECT_LT(cn.node, static_cast<NodeId>(topo.numNodes()));
            EXPECT_FALSE(cn.slot.empty());
        }
        EXPECT_NE(r.summary().find("shared-pool"), std::string::npos);
    }
}

TEST(ServiceProver, RocoForcedPartitionExhibitsInjectionClassCycle)
{
    // Negative control for the RoCo partition unsoundness: injection
    // classes are keyed by the module serving the first hop, so a
    // straight-column XY request occupies InjYx — the class the
    // partition reserves for replies — and the protocol edges close a
    // cycle through it. This is why resolveScheme never picks the
    // partition for RoCo.
    MeshTopology topo(5, 5);
    check::ProofResult r = check::proveServiceRoco(
        topo, RoutingKind::XYYX,
        check::RocoCheckOptions::shipped(RoutingKind::XYYX),
        svc::AvoidanceScheme::ClassPartition);
    EXPECT_FALSE(r.deadlockFree) << r.summary();
    EXPECT_FALSE(r.cycle.empty());
}

TEST(ServiceProver, ProveServiceFollowsTheResolvedScheme)
{
    SimConfig cfg = svcConfig();
    cfg.arch = RouterArch::Generic;
    cfg.routing = RoutingKind::XYYX;
    check::ProofResult r = check::proveService(cfg);
    EXPECT_TRUE(r.deadlockFree) << r.summary() << r.renderCycle();
    EXPECT_EQ(r.scheme, "class-partition");

    cfg.arch = RouterArch::Roco;
    r = check::proveService(cfg);
    EXPECT_TRUE(r.deadlockFree) << r.summary() << r.renderCycle();
    EXPECT_EQ(r.scheme, "endpoint-reserve");
}

TEST(ServiceProverDeathTest, SharedPoolConfigIsRejectedBeforeSimulation)
{
    SimConfig cfg = svcConfig();
    cfg.arch = RouterArch::Generic;
    cfg.routing = RoutingKind::XY;
    cfg.svc.classVcPartition = false;
    cfg.svc.endpointReserve = false; // deliberately broken
    EXPECT_DEATH({ Simulator sim(cfg); }, "deadlock");
}

// ------------------------------------------------------------- closed loop

TEST(ClosedLoopTest, ConservationAndPerClassAccounting)
{
    SimConfig cfg = svcConfig();
    cfg.arch = RouterArch::Generic;
    cfg.routing = RoutingKind::XYYX;
    Simulator sim(cfg);
    SimResult r = sim.run();

    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(sim.network().quiescent());
    const FlitLedger &led = sim.network().ledger();
    EXPECT_EQ(led.svcPending, 0u);
    std::uint64_t created = 0, retired = 0;
    for (int c = 0; c < kNumMsgClasses; ++c) {
        EXPECT_EQ(led.createdByClass[c], led.retiredByClass[c])
            << msgClassName(static_cast<MsgClass>(c));
        created += led.createdByClass[c];
        retired += led.retiredByClass[c];
    }
    EXPECT_EQ(created, led.created);
    EXPECT_EQ(retired, led.retired);

    ASSERT_EQ(r.classes.size(), static_cast<std::size_t>(kNumMsgClasses));
    std::uint64_t requestsDelivered = 0, repliesDelivered = 0;
    for (int c = 0; c < kNumMsgClasses; ++c) {
        const SimResult::ClassResult &cr =
            r.classes[static_cast<std::size_t>(c)];
        EXPECT_EQ(cr.name, msgClassName(static_cast<MsgClass>(c)));
        // Fault-free: every packet of every class arrives.
        EXPECT_EQ(cr.injected, cr.delivered);
        if (isReplyClass(static_cast<MsgClass>(c)))
            repliesDelivered += cr.delivered;
        else
            requestsDelivered += cr.delivered;
    }
    EXPECT_GT(requestsDelivered, 0u);
    // Every delivered request was answered (fault-free, no timeouts).
    EXPECT_EQ(repliesDelivered, requestsDelivered);
    EXPECT_EQ(r.replyCount, repliesDelivered);
    EXPECT_EQ(r.svcTimeouts, 0u);
    EXPECT_EQ(r.svcLateReplies, 0u);

    // RTTs were recorded on the request classes of measured traffic.
    std::uint64_t rtts = 0;
    for (const SimResult::ClassResult &cr : r.classes)
        rtts += cr.rttCount;
    EXPECT_GT(rtts, 0u);
    EXPECT_GE(r.drainCycles, r.cycles);
}

TEST(ClosedLoopTest, QosTierFractionSteersClasses)
{
    SimConfig cfg = svcConfig();
    cfg.measurePackets = 80;

    cfg.svc.highTierFraction = 1.0;
    SimResult high = Simulator(cfg).run();
    ASSERT_EQ(high.classes.size(), 4u);
    EXPECT_GT(high.classes[kClsReqHigh].delivered, 0u);
    EXPECT_EQ(high.classes[kClsReqBulk].delivered, 0u);
    EXPECT_EQ(high.classes[kClsRepBulk].delivered, 0u);

    cfg.svc.highTierFraction = 0.0;
    SimResult bulk = Simulator(cfg).run();
    EXPECT_EQ(bulk.classes[kClsReqHigh].delivered, 0u);
    EXPECT_GT(bulk.classes[kClsReqBulk].delivered, 0u);
    EXPECT_EQ(bulk.classes[kClsRepBulk].delivered,
              bulk.classes[kClsReqBulk].delivered);
}

TEST(ClosedLoopTest, InFlightRepliesOutliveTheIdleWindow)
{
    // A service latency beyond kIdleWindow leaves the network silent
    // long enough that the inactivity cutoff would fire mid-protocol;
    // the svcPending guard must hold the run open, and every request
    // must still be answered (no hang, no truncation).
    SimConfig cfg = svcConfig();
    cfg.warmupPackets = 0;
    cfg.measurePackets = 15;
    cfg.injectionRate = 0.05;
    cfg.maxCycles = 400000;
    cfg.svc.serviceLatency = RunControl::kIdleWindow + 1000;
    cfg.svc.mshrTimeout = 100000;
    Simulator sim(cfg);
    SimResult r = sim.run();

    EXPECT_FALSE(r.timedOut);
    EXPECT_TRUE(sim.network().quiescent());
    EXPECT_EQ(sim.network().ledger().svcPending, 0u);
    EXPECT_EQ(r.svcTimeouts, 0u);
    std::uint64_t req = 0, rep = 0;
    for (int c = 0; c < kNumMsgClasses; ++c) {
        if (isReplyClass(static_cast<MsgClass>(c)))
            rep += r.classes[static_cast<std::size_t>(c)].delivered;
        else
            req += r.classes[static_cast<std::size_t>(c)].delivered;
    }
    EXPECT_GT(req, 0u);
    EXPECT_EQ(rep, req);
    EXPECT_GT(r.drainCycles, cfg.svc.serviceLatency);
}

TEST(ClosedLoopTest, SerialAndShardedRunsAreBitIdentical)
{
    for (RouterArch arch : {RouterArch::Generic, RouterArch::Roco,
                            RouterArch::PathSensitive}) {
        SimConfig cfg = svcConfig();
        cfg.arch = arch;
        cfg.routing = arch == RouterArch::Generic ? RoutingKind::XYYX
                                                  : RoutingKind::XY;

        cfg.shards = 1;
        SimResult serial = Simulator(cfg).run();
        cfg.shards = 4;
        SimResult sharded = Simulator(cfg).run();

        EXPECT_EQ(serial, sharded) << toString(arch)
                                   << " diverged across engines";
    }
}

TEST(ClosedLoopTest, FaultsPreservePerClassConservation)
{
    MeshTopology topo(4, 4);
    SimConfig cfg = svcConfig();
    cfg.measurePackets = 100;
    cfg.svc.mshrTimeout = 2000; // reclaim windows lost to drops
    auto faults = placeRandomFaults(
        topo, FaultClass::RouterCentricCritical, 2, 3, 11);
    Simulator sim(cfg, faults);
    SimResult r = sim.run();

    const FlitLedger &led = sim.network().ledger();
    std::uint64_t created = 0, retired = 0;
    for (int c = 0; c < kNumMsgClasses; ++c) {
        EXPECT_LE(led.retiredByClass[c], led.createdByClass[c]);
        created += led.createdByClass[c];
        retired += led.retiredByClass[c];
    }
    EXPECT_EQ(created, led.created);
    EXPECT_EQ(retired, led.retired);
    EXPECT_LE(r.completion, 1.0);
    // The endpoint never wedges: reclaimed MSHRs keep the window
    // turning even when requests die at faulty routers.
    EXPECT_FALSE(r.timedOut);
}

// -------------------------------------------------------- saturation search

TEST(SaturationTest, KneeSearchIsDeterministicAcrossThreadCounts)
{
    exp::SaturationSpec spec;
    spec.base = svcConfig();
    spec.base.warmupPackets = 10;
    spec.base.measurePackets = 80;
    spec.loRate = 0.02;
    spec.hiRate = 0.4;
    spec.rounds = 2;
    spec.probesPerRound = 2;

    spec.threads = 1;
    exp::SaturationResult serial = exp::findSaturation(spec);
    spec.threads = 4;
    exp::SaturationResult pooled = exp::findSaturation(spec);

    ASSERT_EQ(serial.knees.size(), 1u + kNumMsgClasses);
    EXPECT_EQ(serial.knees[0].series, "overall");
    EXPECT_GT(serial.knees[0].zeroLoadLatency, 0.0);
    ASSERT_EQ(pooled.knees.size(), serial.knees.size());
    for (std::size_t i = 0; i < serial.knees.size(); ++i) {
        EXPECT_EQ(serial.knees[i].series, pooled.knees[i].series);
        EXPECT_EQ(serial.knees[i].zeroLoadLatency,
                  pooled.knees[i].zeroLoadLatency);
        EXPECT_EQ(serial.knees[i].kneeRate, pooled.knees[i].kneeRate);
        EXPECT_EQ(serial.knees[i].kneeLatency,
                  pooled.knees[i].kneeLatency);
        EXPECT_EQ(serial.knees[i].saturated, pooled.knees[i].saturated);
    }
    EXPECT_EQ(serial.probedRates, pooled.probedRates);

    std::string json = exp::saturationJson(spec, serial);
    EXPECT_NE(json.find("\"knees\""), std::string::npos);
    EXPECT_NE(json.find("\"series\": \"overall\""), std::string::npos);
    EXPECT_NE(json.find("\"probedRates\""), std::string::npos);
}

TEST(SaturationTest, BatchModeReportsTimeToDrain)
{
    exp::SaturationSpec spec;
    spec.base = svcConfig();
    spec.base.injectionRate = 0.15;
    spec.threads = 2;
    exp::BatchResult b = exp::runBatch(spec, 120);

    EXPECT_EQ(b.budget, 120u);
    EXPECT_GT(b.delivered, 0u);
    EXPECT_GT(b.timeToDrain, 0u);
    EXPECT_GT(b.packetsPerCycle, 0.0);
    EXPECT_FALSE(b.result.timedOut);
    EXPECT_EQ(b.result.classes.size(),
              static_cast<std::size_t>(kNumMsgClasses));

    std::string json = exp::saturationJson(
        spec, exp::SaturationResult{}, &b);
    EXPECT_NE(json.find("\"batch\""), std::string::npos);
    EXPECT_NE(json.find("\"timeToDrain\""), std::string::npos);
}

} // namespace
} // namespace noc
