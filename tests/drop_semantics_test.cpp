/**
 * @file
 * Directed tests of the packet-discard ("fragmented packets are simply
 * discarded") semantics around static hard faults: exactly the
 * blocked packets die, everything else delivers, and the credit
 * protocol stays intact through the drops.
 */
#include <gtest/gtest.h>

#include "sim/network.h"

namespace noc {
namespace {

class DropFixture : public testing::Test
{
  protected:
    SimConfig
    config(RouterArch arch, RoutingKind routing = RoutingKind::XY)
    {
        SimConfig cfg;
        cfg.meshWidth = 4;
        cfg.meshHeight = 4;
        cfg.arch = arch;
        cfg.routing = routing;
        cfg.injectionRate = 0.0;
        return cfg;
    }

    void
    settle(Network &net, Cycle steps = 600)
    {
        for (Cycle t = 0; t < steps; ++t)
            net.step(t, false, false);
    }

    std::uint64_t id_ = 1;
};

TEST_F(DropFixture, GenericDropsOnlyPacketsThroughTheDeadNode)
{
    // Node 5 dead. Under XY: 4 -> 7 crosses 5 (dropped), 4 -> 11 does
    // not (4 east to... stays clear: 4 -> 5? no: XY from 4 (0,1) to 11
    // (3,2) goes East through 5! use 0 -> 12: pure column 0 north.
    FaultSpec f{5, FaultComponent::Crossbar, Module::Row, 0, 0};
    Network net(config(RouterArch::Generic), {f});
    net.nic(4).enqueuePacket(7, 0, id_, true);  // through 5: dropped
    net.nic(0).enqueuePacket(12, 0, id_, true); // column 0: clear
    net.nic(4).enqueuePacket(5, 0, id_, true);  // to the dead node
    settle(net);
    EXPECT_EQ(net.nic(7).deliveredPackets(), 0u);
    EXPECT_EQ(net.nic(12).deliveredPackets(), 1u);
    EXPECT_EQ(net.nic(5).deliveredPackets(), 0u);
    // Nothing lingers: the blocked packets were drained, not stuck.
    EXPECT_EQ(net.flitsInFlight(), 0);
    for (int i = 0; i < net.numNodes(); ++i) {
        EXPECT_TRUE(
            net.router(static_cast<NodeId>(i)).creditsQuiescent())
            << i;
    }
}

TEST_F(DropFixture, AdaptiveRoutesAroundWhatXyCannot)
{
    // Node 5 dead; 4 -> 7 has a minimal detour through row 0 or row 2
    // that west-first adaptive routing can take, XY cannot.
    FaultSpec f{5, FaultComponent::Crossbar, Module::Row, 0, 0};
    Network xyNet(config(RouterArch::Generic, RoutingKind::XY), {f});
    xyNet.nic(4).enqueuePacket(7, 0, id_, true);
    settle(xyNet);
    EXPECT_EQ(xyNet.nic(7).deliveredPackets(), 0u);

    // 4 -> 7 is on-axis: minimal adaptive has no detour either, but
    // 0 -> 7 (north-east region) does.
    Network adNet(config(RouterArch::Generic, RoutingKind::Adaptive),
                  {f});
    adNet.nic(0).enqueuePacket(7, 0, id_, true);
    settle(adNet);
    EXPECT_EQ(adNet.nic(7).deliveredPackets(), 1u);
}

TEST_F(DropFixture, RocoDeadRowModuleDropsOnlyRowThroughTraffic)
{
    FaultSpec f{5, FaultComponent::VaArbiter, Module::Row, 0, 0};
    Network net(config(RouterArch::Roco), {f});
    net.nic(4).enqueuePacket(7, 0, id_, true);  // E-W through 5: dead
    net.nic(1).enqueuePacket(13, 0, id_, true); // N-S through 5: alive
    net.nic(4).enqueuePacket(5, 0, id_, true);  // ejection: alive
    net.nic(5).enqueuePacket(13, 0, id_, true); // inject via column: ok
    settle(net);
    EXPECT_EQ(net.nic(7).deliveredPackets(), 0u);
    EXPECT_EQ(net.nic(13).deliveredPackets(), 2u);
    EXPECT_EQ(net.nic(5).deliveredPackets(), 1u);
    EXPECT_EQ(net.flitsInFlight(), 0);
}

TEST_F(DropFixture, RocoSourceBlockedPacketsAreDiscardedAtTheNic)
{
    // Row module dead at the source: X-first packets can never inject
    // and are discarded from the source queue; Y packets still flow.
    FaultSpec f{5, FaultComponent::VaArbiter, Module::Row, 0, 0};
    Network net(config(RouterArch::Roco), {f});
    net.nic(5).enqueuePacket(6, 0, id_, true);  // needs row: discarded
    net.nic(5).enqueuePacket(9, 0, id_, true);  // pure column: flows
    settle(net);
    EXPECT_EQ(net.nic(6).deliveredPackets(), 0u);
    EXPECT_EQ(net.nic(9).deliveredPackets(), 1u);
    EXPECT_EQ(net.nic(5).queuedFlits(), 0u); // queue fully drained
}

TEST_F(DropFixture, PacketsToADeadDestinationAreDiscardedEverywhere)
{
    FaultSpec f{10, FaultComponent::SaArbiter, Module::Row, 0, 0};
    for (RouterArch arch :
         {RouterArch::Generic, RouterArch::PathSensitive}) {
        Network net(config(arch), {f});
        net.nic(0).enqueuePacket(10, 0, id_, true);
        net.nic(11).enqueuePacket(10, 0, id_, true);
        settle(net);
        EXPECT_EQ(net.nic(10).deliveredPackets(), 0u) << toString(arch);
        EXPECT_EQ(net.flitsInFlight(), 0) << toString(arch);
    }
}

TEST_F(DropFixture, MidRouteDropReturnsEveryCredit)
{
    // An XY packet 0 -> 7 (0->1->2->3, then north) crosses healthy
    // hops before meeting the fault at node 3; the discard must free
    // the buffers it crossed (credits quiescent). The drain returns
    // credits through each layout's wire slots: a per-port VC
    // (generic) or a pooled slot id (PS, RoCo).
    struct Case {
        RouterArch arch;
        FaultSpec fault;
    };
    const Case cases[] = {
        // Node 3 dies whole. Generic drops at 2, whose only XY hop is
        // the dead node; PS's look-ahead at 1 already sees it beyond 2.
        {RouterArch::Generic,
         {3, FaultComponent::MuxDemux, Module::Row, 0, 0}},
        {RouterArch::PathSensitive,
         {3, FaultComponent::MuxDemux, Module::Row, 0, 0}},
        // Only node 3's column module dies: node 2's look-ahead finds
        // no live module for the turn north at 3.
        {RouterArch::Roco,
         {3, FaultComponent::MuxDemux, Module::Column, 0, 0}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(toString(c.arch));
        Network net(config(c.arch), {c.fault});
        net.nic(0).enqueuePacket(7, 0, id_, true);
        settle(net);
        EXPECT_EQ(net.nic(7).deliveredPackets(), 0u);
        EXPECT_EQ(net.flitsInFlight(), 0);
        // Dropped mid-route, not at the source queue.
        EXPECT_GT(net.router(1).activity().bufferWrites, 0u);
        for (int i = 0; i < net.numNodes(); ++i) {
            EXPECT_TRUE(
                net.router(static_cast<NodeId>(i)).creditsQuiescent())
                << i;
        }
        if (c.arch != RouterArch::PathSensitive) {
            // Two healthy hops, then discarded at node 2 itself.
            EXPECT_GT(net.router(2).activity().bufferWrites, 0u);
            EXPECT_EQ(net.router(2).activity().bufferReads, 0u);
            EXPECT_EQ(net.router(3).activity().bufferWrites, 0u);
        }
    }
}

} // namespace
} // namespace noc
