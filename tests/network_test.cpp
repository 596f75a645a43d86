/** @file Integration tests for network construction and flit flow. */
#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "sim/network.h"

namespace noc {
namespace {

SimConfig
quietConfig(RouterArch arch, RoutingKind routing = RoutingKind::XY)
{
    SimConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.arch = arch;
    cfg.routing = routing;
    cfg.injectionRate = 0.0; // tests drive traffic by hand
    return cfg;
}

/** Runs until the network drains or maxSteps elapse. */
Cycle
runUntilDrained(Network &net, Cycle from, Cycle maxSteps)
{
    for (Cycle t = from; t < from + maxSteps; ++t) {
        net.step(t, false, false);
        bool queued = false;
        for (int i = 0; i < net.numNodes(); ++i)
            queued = queued ||
                     net.nic(static_cast<NodeId>(i)).queuedFlits() > 0;
        if (!queued && net.flitsInFlight() == 0)
            return t + 1;
    }
    return from + maxSteps;
}

class NetworkArchTest : public testing::TestWithParam<RouterArch>
{
};

TEST_P(NetworkArchTest, BuildsAllNodes)
{
    Network net(quietConfig(GetParam()));
    EXPECT_EQ(net.numNodes(), 16);
    EXPECT_EQ(net.router(0).arch(), GetParam());
    EXPECT_EQ(net.router(0).id(), 0u);
    EXPECT_EQ(net.flitsInFlight(), 0);
}

TEST_P(NetworkArchTest, SinglePacketReachesItsDestination)
{
    SimConfig cfg = quietConfig(GetParam());
    Network net(cfg);
    std::uint64_t id = 1;
    net.nic(0).enqueuePacket(15, 0, id, true); // corner to corner
    runUntilDrained(net, 0, 500);
    EXPECT_EQ(net.nic(15).deliveredPackets(), 1u);
    EXPECT_EQ(net.nic(15).deliveredFlits(), 4u);
}

TEST_P(NetworkArchTest, AdjacentPacketUsesEarlyEjectionTiming)
{
    SimConfig cfg = quietConfig(GetParam());
    Network net(cfg);
    std::uint64_t id = 1;
    net.nic(0).enqueuePacket(1, 0, id, true); // one hop east
    Cycle end = runUntilDrained(net, 0, 200);
    ASSERT_EQ(net.nic(1).deliveredPackets(), 1u);
    double lat = net.nic(1).latency().mean();
    // Tail: pulled at cycle 3, arrives at cycle 6. RoCo and
    // Path-Sensitive eject on arrival (latency 6); the generic router
    // pays switch allocation plus traversal at the destination (+2).
    if (GetParam() == RouterArch::Generic)
        EXPECT_DOUBLE_EQ(lat, 8.0);
    else
        EXPECT_DOUBLE_EQ(lat, 6.0);
    EXPECT_LT(end, 100u);
}

TEST_P(NetworkArchTest, EveryPairDelivers)
{
    // Flit conservation: one packet per (src, dst) pair, everything
    // arrives exactly once.
    SimConfig cfg = quietConfig(GetParam());
    Network net(cfg);
    std::uint64_t id = 1;
    int sent = 0;
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            net.nic(s).enqueuePacket(d, 0, id, true);
            ++sent;
        }
    }
    runUntilDrained(net, 0, 5000);
    EXPECT_EQ(net.totalDelivered(), static_cast<std::uint64_t>(sent));
    EXPECT_EQ(net.totalDeliveredMeasured(),
              static_cast<std::uint64_t>(sent));
    EXPECT_EQ(net.flitsInFlight(), 0);
}

TEST_P(NetworkArchTest, ZeroLoadLatencyScalesWithHops)
{
    // Every link ring shape: hop delay 1 leaves the generic router a
    // zero-cycle ejection pipe, 3 and 7 fill their rings, 2 rounds up.
    for (int hopDelay : {1, 2, 3, 7}) {
        SCOPED_TRACE(testing::Message() << "hopDelay " << hopDelay);
        SimConfig cfg = quietConfig(GetParam());
        cfg.meshWidth = 8;
        cfg.meshHeight = 8;
        cfg.hopDelay = hopDelay;
        Network net(cfg);
        std::uint64_t id = 1;
        net.nic(0).enqueuePacket(7, 0, id, true); // 7 hops east
        runUntilDrained(net, 0, 500);
        ASSERT_EQ(net.nic(7).deliveredPackets(), 1u);
        double lat7 = net.nic(7).latency().mean();

        Network net2(cfg);
        id = 1;
        net2.nic(0).enqueuePacket(1, 0, id, true); // 1 hop
        runUntilDrained(net2, 0, 500);
        ASSERT_EQ(net2.nic(1).deliveredPackets(), 1u);
        double lat1 = net2.nic(1).latency().mean();

        // Six extra hops at hopDelay cycles each, uncontended.
        EXPECT_NEAR(lat7 - lat1, 6.0 * cfg.hopDelay, 1.0);
    }
}

TEST_P(NetworkArchTest, ActivityCountersMove)
{
    SimConfig cfg = quietConfig(GetParam());
    Network net(cfg);
    std::uint64_t id = 1;
    net.nic(0).enqueuePacket(5, 0, id, true);
    runUntilDrained(net, 0, 500);
    ActivityCounters a = net.totalActivity();
    EXPECT_GT(a.bufferWrites, 0u);
    EXPECT_GT(a.crossbarTraversals, 0u);
    EXPECT_GT(a.linkTraversals, 0u);
    EXPECT_GT(a.rcComputations, 0u);
    if (GetParam() == RouterArch::Generic)
        EXPECT_EQ(a.earlyEjections, 0u);
    else
        EXPECT_EQ(a.earlyEjections, 4u); // all four flits of the packet
    net.resetActivity();
    EXPECT_EQ(net.totalActivity().bufferWrites, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, NetworkArchTest,
                         testing::Values(RouterArch::Generic,
                                         RouterArch::PathSensitive,
                                         RouterArch::Roco),
                         [](const auto &info) {
                             return std::string(toString(info.param)) ==
                                            "Path-Sensitive"
                                        ? "PathSensitive"
                                        : toString(info.param);
                         });

/** Architecture x routing sweep: random many-packet conservation. */
class NetworkMatrixTest
    : public testing::TestWithParam<std::tuple<RouterArch, RoutingKind>>
{
};

TEST_P(NetworkMatrixTest, ManyRandomPacketsAllDeliver)
{
    auto [arch, routing] = GetParam();
    SimConfig cfg = quietConfig(arch, routing);
    Network net(cfg);
    Rng rng(2024);
    std::uint64_t id = 1;
    int sent = 0;
    for (int k = 0; k < 300; ++k) {
        NodeId s = static_cast<NodeId>(rng.nextRange(16));
        NodeId d = static_cast<NodeId>(rng.nextRange(16));
        if (s == d)
            continue;
        bool yx = rng.nextBool(0.5);
        net.nic(s).enqueuePacket(d, 0, id, true, yx);
        ++sent;
    }
    runUntilDrained(net, 0, 20000);
    EXPECT_EQ(net.totalDelivered(), static_cast<std::uint64_t>(sent));
    EXPECT_EQ(net.flitsInFlight(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    ArchRouting, NetworkMatrixTest,
    testing::Combine(testing::Values(RouterArch::Generic,
                                     RouterArch::PathSensitive,
                                     RouterArch::Roco),
                     testing::Values(RoutingKind::XY, RoutingKind::XYYX,
                                     RoutingKind::Adaptive)));

/**
 * Network::step generates through the injection-lane sweep; a per-node
 * caller (a standalone loop, the benchmark's traced run) calls
 * Nic::generate on each NIC instead. Both must draw the same streams,
 * so two twin networks — one stepped by the engine, one driven call by
 * call in stepPhase order — must end in the same state.
 */
class EngineGenerationTest
    : public testing::TestWithParam<std::tuple<TrafficKind, double>>
{
  protected:
    /** One cycle of the per-node reference: every NIC's generate(),
     *  then every router in schedule order, none skipped. */
    static void
    stepTwin(Network &twin, Cycle t, bool generating, bool measured)
    {
        const ShardPlan order(twin.config().meshWidth,
                              twin.config().meshHeight, 1);
        for (int i = 0; i < twin.numNodes(); ++i)
            twin.nic(static_cast<NodeId>(i))
                .generate(t, measured, generating);
        for (int ph = 0; ph < kNumStepPhases; ++ph) {
            for (NodeId id : order.phaseNodes(0, ph))
                twin.router(id).step(t);
        }
    }

    /** The ledgers and every NIC's counters (and service endpoint's,
     *  if any) of the two networks agree. */
    static void
    expectSameState(const Network &engine, const Network &twin)
    {
        EXPECT_GT(engine.ledger().created, 0u);
        EXPECT_EQ(engine.ledger(), twin.ledger());
        for (int i = 0; i < engine.numNodes(); ++i) {
            SCOPED_TRACE("node " + std::to_string(i));
            const Nic &a = engine.nic(static_cast<NodeId>(i));
            const Nic &b = twin.nic(static_cast<NodeId>(i));
            EXPECT_EQ(a.injectedPackets(), b.injectedPackets());
            EXPECT_EQ(a.deliveredPackets(), b.deliveredPackets());
            EXPECT_EQ(a.injectedMeasured(), b.injectedMeasured());
            EXPECT_EQ(a.deliveredMeasured(), b.deliveredMeasured());
            ASSERT_EQ(a.endpoint() != nullptr, b.endpoint() != nullptr);
            if (const svc::ServiceEndpoint *ea = a.endpoint()) {
                const svc::ServiceEndpoint *eb = b.endpoint();
                EXPECT_EQ(ea->timeouts(), eb->timeouts());
                EXPECT_EQ(ea->throttled(), eb->throttled());
                EXPECT_EQ(ea->lateReplies(), eb->lateReplies());
                EXPECT_EQ(ea->outstanding(), eb->outstanding());
                EXPECT_EQ(ea->pendingReplies(), eb->pendingReplies());
            }
        }
    }
};

TEST_P(EngineGenerationTest, StepMatchesPerNodeGenerate)
{
    auto [traffic, rate] = GetParam();
    constexpr Cycle kWarmup = 500, kGenerate = 2500, kCycles = 3500;
    for (RouterArch arch : {RouterArch::Generic, RouterArch::PathSensitive,
                            RouterArch::Roco}) {
        SimConfig cfg;
        cfg.meshWidth = 8;
        cfg.meshHeight = 8;
        cfg.arch = arch;
        cfg.traffic = traffic;
        cfg.injectionRate = rate;
        cfg.idleSkip = false; // every router steps on both sides
        Network engine(cfg);
        Network twin(cfg);

        for (Cycle t = 0; t < kCycles; ++t) {
            const bool generating = t < kGenerate;
            const bool measured = t >= kWarmup;
            engine.step(t, generating, measured);
            stepTwin(twin, t, generating, measured);
        }

        SCOPED_TRACE(toString(arch));
        expectSameState(engine, twin);
    }
}

/**
 * Service mode sweeps the lanes too: a service NIC is called only when
 * its arrival draw fires or its endpoint's deadline (a reply's fire
 * cycle, an MSHR's expiry) is due. Two critical faults strand requests
 * at dead nodes and drop others, so with a short timeout MSHRs expire
 * through the drain, and replies fire there after the service
 * latency. The engine also idle-skips (the twin steps every router),
 * so a dead router that is never woken is covered. The drain must
 * hold cycles the run loop would skip whole, in which the engine does
 * nothing while the twin still calls every NIC, and cycles with a
 * deadline due, or the deadline path went untested.
 */
TEST_P(EngineGenerationTest, ServiceModeMatchesPerNodeGenerate)
{
    auto [traffic, rate] = GetParam();
    constexpr Cycle kWarmup = 500, kGenerate = 2000, kCycles = 3500;
    for (RouterArch arch : {RouterArch::Generic, RouterArch::PathSensitive,
                            RouterArch::Roco}) {
        SimConfig cfg;
        cfg.meshWidth = 8;
        cfg.meshHeight = 8;
        cfg.arch = arch;
        cfg.routing = RoutingKind::XYYX;
        cfg.traffic = traffic;
        cfg.injectionRate = rate;
        cfg.svc.enabled = true;
        cfg.svc.serviceLatency = 60;
        cfg.svc.mshrTimeout = 400;
        cfg.idleSkip = true;
        const std::vector<FaultSpec> faults = placeRandomFaults(
            MeshTopology(cfg.meshWidth, cfg.meshHeight),
            FaultClass::RouterCentricCritical, 2, cfg.vcsPerPort, 5);
        Network engine(cfg, faults);
        Network twin(cfg, faults);

        SCOPED_TRACE(toString(arch));
        std::uint64_t stepped = 1; // router steps of the last cycle
        Cycle frozen = 0;    // drain cycles par::run fast-forwards over
        Cycle deadlines = 0; // drain cycles with some NIC deadline due
        for (Cycle t = 0; t < kCycles; ++t) {
            const bool generating = t < kGenerate;
            const bool measured = t >= kWarmup;
            // The run loop's rule: after a drain cycle that stepped no
            // router, nothing can act before the next NIC deadline.
            const bool drain = t > kGenerate;
            const bool skippable =
                drain && stepped == 0 && engine.nextDue() > t;
            if (drain && engine.nextDue() <= t)
                ++deadlines;
            stepped = engine.step(t, generating, measured);
            if (skippable) {
                ++frozen;
                EXPECT_EQ(stepped, 0u) << "frozen cycle " << t;
            }
            stepTwin(twin, t, generating, measured);
        }

        expectSameState(engine, twin);
        std::uint64_t timeouts = 0;
        for (int i = 0; i < engine.numNodes(); ++i)
            timeouts += engine.nic(static_cast<NodeId>(i))
                            .endpoint()
                            ->timeouts();
        EXPECT_GT(timeouts, 0u) << "no MSHR expired";
        EXPECT_GT(frozen, 0u) << "no whole cycle was skippable";
        EXPECT_GT(deadlines, 0u) << "no deadline fell in the drain";
    }
}

INSTANTIATE_TEST_SUITE_P(
    TrafficLoad, EngineGenerationTest,
    testing::Combine(testing::Values(TrafficKind::Uniform,
                                     TrafficKind::BitComplement),
                     testing::Values(0.02, 0.25)));

/**
 * A NIC's histograms keep their configured geometry (1,025 latency
 * bins; 513 buckets per service histogram, for 2^20 cycles) but store
 * only the bins a run records: none before the first cycle, and
 * afterwards exactly those through the highest value recorded.
 */
TEST(NetworkHistogramTest, ServiceNicsStoreOnlyWhatTheyRecord)
{
    SimConfig cfg;
    cfg.meshWidth = 16;
    cfg.meshHeight = 16;
    cfg.arch = RouterArch::Roco;
    cfg.routing = RoutingKind::XYYX;
    cfg.injectionRate = 0.05;
    cfg.svc.enabled = true;
    Network net(cfg);
    for (int i = 0; i < net.numNodes(); ++i) {
        const Nic &nic = net.nic(static_cast<NodeId>(i));
        EXPECT_EQ(nic.latencyHistogram().numBins(), 1025);
        EXPECT_EQ(nic.latencyHistogram().storedBins(), 0u) << i;
        const svc::ClassStats *cs = nic.classStats();
        ASSERT_NE(cs, nullptr);
        for (int c = 0; c < kNumMsgClasses; ++c) {
            EXPECT_EQ(cs[c].latencyHist.bucketCount(), 513u);
            EXPECT_EQ(cs[c].latencyHist.storedBuckets(), 0u) << i;
            EXPECT_EQ(cs[c].rttHist.storedBuckets(), 0u) << i;
        }
    }

    for (Cycle t = 0; t < 1500; ++t)
        net.step(t, t < 1000, true);
    std::uint64_t recorded = 0;
    for (int i = 0; i < net.numNodes(); ++i) {
        const Nic &nic = net.nic(static_cast<NodeId>(i));
        const Histogram &h = nic.latencyHistogram();
        recorded += h.total();
        if (h.total() > 0)
            EXPECT_GT(h.bin(static_cast<int>(h.storedBins()) - 1), 0u);
        else
            EXPECT_EQ(h.storedBins(), 0u);
        const svc::ClassStats *cs = nic.classStats();
        for (int c = 0; c < kNumMsgClasses; ++c) {
            for (const obs::HdrHistogram *hh :
                 {&cs[c].latencyHist, &cs[c].rttHist}) {
                const std::size_t top = hh->bucketIndex(hh->max());
                EXPECT_EQ(hh->storedBuckets(), hh->count() ? top + 1 : 0);
            }
        }
    }
    EXPECT_GT(recorded, 0u);
}

} // namespace
} // namespace noc
