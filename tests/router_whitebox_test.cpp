/**
 * @file
 * White-box router tests: guided flit queuing placement, per-module
 * crossbar attribution, early ejection, and the credit-protocol
 * quiescence invariant, observed through the routers' introspection
 * hooks on a live 3x3 network.
 */
#include <gtest/gtest.h>

#include <vector>

#include "check/invariant.h"
#include "router/pathsensitive/ps_router.h"
#include "router/roco/roco_router.h"
#include "sim/network.h"

namespace noc {
namespace {

/** Collects invariant violations while in scope. */
class ViolationLog : public check::ViolationRecorder
{
  public:
    ViolationLog() : prev_(check::setViolationRecorder(this))
    {
        check::setInvariantsEnabled(true);
    }
    ~ViolationLog() override { check::setViolationRecorder(prev_); }

    void onViolation(const check::Violation &v) override
    {
        got.push_back(v);
    }

    std::vector<check::Violation> got;

  private:
    check::ViolationRecorder *prev_;
};

/** 3x3 mesh, node 4 in the middle; traffic driven by hand. */
class WhiteboxFixture : public testing::Test
{
  protected:
    SimConfig
    config(RouterArch arch, RoutingKind routing = RoutingKind::XY)
    {
        SimConfig cfg;
        cfg.meshWidth = 3;
        cfg.meshHeight = 3;
        cfg.arch = arch;
        cfg.routing = routing;
        cfg.injectionRate = 0.0;
        return cfg;
    }

    void
    drain(Network &net, Cycle maxSteps = 500)
    {
        for (Cycle t = 0; t < maxSteps; ++t) {
            net.step(t, false, false);
            bool queued = false;
            for (int i = 0; i < net.numNodes(); ++i)
                queued = queued ||
                         net.nic(static_cast<NodeId>(i)).queuedFlits() >
                             0;
            if (!queued && net.flitsInFlight() == 0)
                return;
        }
        FAIL() << "network failed to drain";
    }

    std::uint64_t id_ = 1;
};

TEST_F(WhiteboxFixture, RocoStraightPacketUsesOnlyTheRowModule)
{
    Network net(config(RouterArch::Roco));
    // 3 -> 5 passes straight East through the centre node 4.
    net.nic(3).enqueuePacket(5, 0, id_, true);
    drain(net);
    auto &center = static_cast<RocoRouter &>(net.router(4));
    EXPECT_EQ(center.crossbar(Module::Row).traversals(), 4u);
    EXPECT_EQ(center.crossbar(Module::Column).traversals(), 0u);
}

TEST_F(WhiteboxFixture, RocoTurningPacketUsesOnlyTheColumnModule)
{
    Network net(config(RouterArch::Roco));
    // 3 -> 7 turns X->Y exactly at the centre under XY routing; guided
    // queuing must steer the flits into the column module there.
    net.nic(3).enqueuePacket(7, 0, id_, true);
    drain(net);
    auto &center = static_cast<RocoRouter &>(net.router(4));
    EXPECT_EQ(center.crossbar(Module::Row).traversals(), 0u);
    EXPECT_EQ(center.crossbar(Module::Column).traversals(), 4u);
}

TEST_F(WhiteboxFixture, RocoEjectingPacketTouchesNeitherCrossbar)
{
    Network net(config(RouterArch::Roco));
    net.nic(3).enqueuePacket(4, 0, id_, true); // one hop, ejects at 4
    drain(net);
    auto &center = static_cast<RocoRouter &>(net.router(4));
    EXPECT_EQ(center.crossbar(Module::Row).traversals(), 0u);
    EXPECT_EQ(center.crossbar(Module::Column).traversals(), 0u);
    EXPECT_EQ(center.activity().earlyEjections, 4u);
    EXPECT_EQ(center.activity().bufferWrites, 0u); // never buffered
}

TEST_F(WhiteboxFixture, RocoModulesRunConcurrently)
{
    Network net(config(RouterArch::Roco));
    // Row stream 3->5 and column stream 1->7 cross at the centre in
    // different modules: both must flow with zero mutual contention.
    for (int k = 0; k < 5; ++k) {
        net.nic(3).enqueuePacket(5, 0, id_, true);
        net.nic(1).enqueuePacket(7, 0, id_, true);
    }
    drain(net, 2000);
    auto &center = static_cast<RocoRouter &>(net.router(4));
    EXPECT_EQ(center.crossbar(Module::Row).traversals(), 20u);
    EXPECT_EQ(center.crossbar(Module::Column).traversals(), 20u);
    EXPECT_EQ(center.rowContention().hits(), 0u);
    EXPECT_EQ(center.colContention().hits(), 0u);
}

TEST_F(WhiteboxFixture, RocoBackpressureParksFlitsInTheRightModule)
{
    // XY-YX: the Y-first packet from node 1 turns East exactly at the
    // centre, contending with the straight eastbound stream from node
    // 3 for the East output. Both classes (dx and tyx) live in the row
    // module, so whoever waits must be parked there.
    Network net(config(RouterArch::Roco, RoutingKind::XYYX));
    net.nic(3).enqueuePacket(5, 0, id_, true, false); // X-first
    net.nic(3).enqueuePacket(5, 0, id_, true, false);
    net.nic(1).enqueuePacket(5, 0, id_, true, true);  // Y-first
    bool sawRowOccupancy = false;
    auto &center = static_cast<RocoRouter &>(net.router(4));
    for (Cycle t = 0; t < 400; ++t) {
        net.step(t, false, false);
        sawRowOccupancy =
            sawRowOccupancy || center.moduleOccupancy(Module::Row) > 0;
        bool queued = net.nic(3).queuedFlits() > 0 ||
                      net.nic(1).queuedFlits() > 0;
        if (!queued && net.flitsInFlight() == 0)
            break;
    }
    EXPECT_TRUE(sawRowOccupancy);
    EXPECT_EQ(net.nic(5).deliveredPackets(), 3u);
    EXPECT_EQ(center.moduleOccupancy(Module::Column), 0);
}

TEST_F(WhiteboxFixture, PsQuadrantHoldsTheFlits)
{
    // Converge an X-first and a Y-first packet on the East output of
    // the centre: the loser waits inside an eastern path set (NE or
    // SE), never a western one.
    Network net(config(RouterArch::PathSensitive, RoutingKind::XYYX));
    net.nic(3).enqueuePacket(5, 0, id_, true, false);
    net.nic(3).enqueuePacket(5, 0, id_, true, false);
    net.nic(1).enqueuePacket(5, 0, id_, true, true);
    bool sawEastSet = false;
    auto &center = static_cast<PathSensitiveRouter &>(net.router(4));
    for (Cycle t = 0; t < 400; ++t) {
        net.step(t, false, false);
        sawEastSet = sawEastSet ||
                     center.quadrantOccupancy(Quadrant::NE) > 0 ||
                     center.quadrantOccupancy(Quadrant::SE) > 0;
        EXPECT_EQ(center.quadrantOccupancy(Quadrant::NW), 0);
        EXPECT_EQ(center.quadrantOccupancy(Quadrant::SW), 0);
        bool queued = net.nic(3).queuedFlits() > 0 ||
                      net.nic(1).queuedFlits() > 0;
        if (!queued && net.flitsInFlight() == 0)
            break;
    }
    EXPECT_TRUE(sawEastSet);
    EXPECT_EQ(net.nic(5).deliveredPackets(), 3u);
    EXPECT_EQ(center.crossbar().traversals(), 12u);
}

TEST_F(WhiteboxFixture, CreditProtocolQuiescentAfterDrain)
{
    for (RouterArch arch : {RouterArch::Generic,
                            RouterArch::PathSensitive,
                            RouterArch::Roco}) {
        for (RoutingKind routing :
             {RoutingKind::XY, RoutingKind::XYYX,
              RoutingKind::Adaptive}) {
            Network net(config(arch, routing));
            Rng rng(7);
            for (int k = 0; k < 150; ++k) {
                NodeId s = static_cast<NodeId>(rng.nextRange(9));
                NodeId d = static_cast<NodeId>(rng.nextRange(9));
                if (s != d)
                    net.nic(s).enqueuePacket(d, 0, id_, true,
                                             rng.nextBool(0.5));
            }
            drain(net, 20000);
            for (int i = 0; i < net.numNodes(); ++i) {
                EXPECT_TRUE(net.router(static_cast<NodeId>(i))
                                .creditsQuiescent())
                    << toString(arch) << "/" << toString(routing)
                    << " node " << i;
            }
        }
    }
}

TEST_F(WhiteboxFixture, DrainedDropTailAndNextHeadReturnTwoCreditsAtOnce)
{
    // Generic router, one VC per port, 2-flit packets, node 2 off-line.
    // Node 0 sends three packets east into node 1, all on VC 0: P0 turns
    // north there, P1 is bound past the dead node 2 so node 1 discards
    // it at VA, and P2 ejects at node 1. In one cycle node 1 drains
    // P1's tail and P2's head wins VA plus its speculative SA from the
    // same VC, so the link back to node 0 carries two credits for VC 0
    // in that cycle.
    SimConfig cfg = config(RouterArch::Generic);
    cfg.vcsPerPort = 1;
    cfg.flitsPerPacket = 2;
    FaultSpec dead;
    dead.node = 2;
    dead.component = FaultComponent::Crossbar;
    Network net(cfg, {dead});
    ViolationLog log;
    net.nic(0).enqueuePacket(4, 0, id_, true); // P0
    net.nic(0).enqueuePacket(5, 0, id_, true); // P1, discarded at 1
    net.nic(0).enqueuePacket(1, 0, id_, true); // P2

    const Router &up = net.router(0);
    std::vector<int> inFlight;
    bool doubled = false;
    Cycle doubledAt = 0;
    for (Cycle t = 0; t < 100; ++t) {
        const OutputVc before = up.outputVcAt(Direction::East, 0);
        net.step(t, false, false);
        net.checkProtocolInvariants(t);
        if (doubled && t == doubledAt + cfg.creditDelay) {
            // Both credits land together, creditDelay cycles later.
            const OutputVc &after = up.outputVcAt(Direction::East, 0);
            EXPECT_EQ(after.credits, before.credits + 2);
            EXPECT_EQ(after.outstanding, before.outstanding - 2);
        }
        up.countCreditsIn(Direction::East, inFlight);
        if (!doubled && inFlight[0] == 2) {
            doubled = true;
            doubledAt = t;
        }
        if (t > doubledAt + cfg.creditDelay && net.flitsInFlight() == 0 &&
            net.nic(0).queuedFlits() == 0)
            break;
    }
    ASSERT_TRUE(doubled) << "no cycle returned two credits for one VC";
    EXPECT_EQ(net.nic(4).deliveredPackets(), 1u);
    EXPECT_EQ(net.nic(5).deliveredPackets(), 0u);
    EXPECT_EQ(net.nic(1).deliveredPackets(), 1u);
    EXPECT_TRUE(up.creditsQuiescent());
    EXPECT_TRUE(log.got.empty()) << log.got.front().describe();
}

TEST_F(WhiteboxFixture, EjectionBandwidthIsPerInputPort)
{
    // RoCo ejects right after the demux, so flits arriving on
    // different links for the same PE eject in the same cycle — four
    // one-hop packets from the four neighbours finish in near-minimal
    // time.
    Network net(config(RouterArch::Roco));
    for (NodeId src : {1u, 3u, 5u, 7u})
        net.nic(src).enqueuePacket(4, 0, id_, true);
    Cycle done = 0;
    for (Cycle t = 0; t < 200 && done == 0; ++t) {
        net.step(t, false, false);
        if (net.nic(4).deliveredPackets() == 4)
            done = t;
    }
    ASSERT_GT(done, 0u);
    // 4 flits per packet streaming concurrently: tails land ~cycle 6.
    EXPECT_LE(done, 8u);
}

} // namespace
} // namespace noc
