/**
 * @file
 * White-box router tests: guided flit queuing placement, per-module
 * crossbar attribution, early ejection, the credit-protocol
 * quiescence invariant and the pipeline's stage-bit transitions,
 * observed through the routers' introspection hooks on small live
 * meshes.
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

// --- stage-bit transitions (router/pipeline.h) ----------------------
//
// Each test drives one event that moves an input VC between stages and
// checks the VC acts in the new stage in the first round allowed; the
// mask audit runs after every cycle.

TEST_F(WhiteboxFixture, StalledVcRequestsSaInTheCycleItsCreditArrives)
{
    for (RouterArch arch : {RouterArch::Generic, RouterArch::PathSensitive,
                            RouterArch::Roco}) {
        // One 16-flit packet 3 -> 5: with 7-cycle links the credit loop
        // is longer than the buffer, so the source VC keeps running out
        // of credits with flits waiting.
        SimConfig cfg = config(arch);
        cfg.flitsPerPacket = 16;
        cfg.hopDelay = 7;
        cfg.creditDelay = 7;
        Network net(cfg);
        ViolationLog log;
        net.nic(3).enqueuePacket(5, 0, id_, true);
        const Router &src = net.router(3);
        int stalledArrivals = 0;
        for (Cycle t = 0; t < 400 && net.nic(5).deliveredPackets() == 0;
             ++t) {
            int slot = -1;
            for (int s = 0; s < src.outputSlotCount(); ++s) {
                if (src.outputVcAt(Direction::East, s).busy)
                    slot = s;
            }
            const int before =
                slot < 0 ? -1 : src.outputVcAt(Direction::East, slot).credits;
            const bool waiting = src.bufferedFlits() > 0;
            const std::uint64_t sent0 = src.activity().crossbarTraversals;
            net.step(t, false, false);
            net.checkProtocolInvariants(t);
            if (before != 0 || !waiting)
                continue;
            const int sent = static_cast<int>(
                src.activity().crossbarTraversals - sent0);
            const int arrived =
                src.outputVcAt(Direction::East, slot).credits + sent;
            if (arrived > 0) {
                ++stalledArrivals;
                EXPECT_EQ(sent, 1) << toString(arch) << " cycle " << t;
            }
        }
        EXPECT_GT(stalledArrivals, 0) << toString(arch);
        EXPECT_EQ(net.nic(5).deliveredPackets(), 1u) << toString(arch);
        EXPECT_TRUE(log.got.empty()) << log.got.front().describe();
    }
}

TEST_F(WhiteboxFixture, VaWinnerYieldsToACommittedRequestForItsOutput)
{
    for (RouterArch arch : {RouterArch::Generic, RouterArch::PathSensitive,
                            RouterArch::Roco}) {
        // 4x3 mesh, 1-cycle links: a 16-flit packet 4 -> 7 streams East
        // through node 5 one flit per cycle. A packet 5 -> 7 injected
        // at node 5 mid-stream wins VA for another East VC in cycle t;
        // its switch request in t is speculative and must lose to the
        // stream's committed one.
        SimConfig cfg = config(arch);
        cfg.meshWidth = 4;
        cfg.flitsPerPacket = 16;
        cfg.hopDelay = 1;
        cfg.creditDelay = 1;
        Network net(cfg);
        ViolationLog log;
        net.nic(4).enqueuePacket(7, 0, id_, true);
        const Router &mid = net.router(5);
        const int depth = mid.outputVcDepth();
        bool won = false;
        for (Cycle t = 0; t < 200 && net.nic(7).deliveredPackets() < 2;
             ++t) {
            if (t == 8)
                net.nic(5).enqueuePacket(7, t, id_, true);
            std::uint64_t idle = 0;
            for (int s = 0; s < mid.outputSlotCount(); ++s) {
                if (!mid.outputVcAt(Direction::East, s).busy)
                    idle |= 1ull << s;
            }
            const std::uint64_t sent0 = mid.activity().crossbarTraversals;
            net.step(t, false, false);
            net.checkProtocolInvariants(t);
            for (int s = 0; s < mid.outputSlotCount() && t >= 8 && !won;
                 ++s) {
                const OutputVc &o = mid.outputVcAt(Direction::East, s);
                if ((idle >> s & 1) == 0 || !o.busy)
                    continue;
                won = true;
                EXPECT_EQ(o.credits, depth)
                    << toString(arch) << ": speculative head sent in " << t;
                EXPECT_EQ(mid.activity().crossbarTraversals - sent0, 1u)
                    << toString(arch) << ": the stream stalled in " << t;
            }
        }
        EXPECT_TRUE(won) << toString(arch);
        EXPECT_EQ(net.nic(7).deliveredPackets(), 2u) << toString(arch);
        EXPECT_TRUE(log.got.empty()) << log.got.front().describe();
    }
}

TEST_F(WhiteboxFixture, EjectingPacketBehindATailRequestsSaWhenTheTailLeaves)
{
    // Two packets for the next node queue in one input VC of router
    // `at` while a through stream contends for their output; both are
    // latched Active for early ejection. When the first one's tail
    // leaves in cycle t, the second becomes SA-ready in t, so it
    // requests in the next switch allocation round.
    struct Case {
        RouterArch arch;
        int width, height;
        NodeId at, sink, streamSrc, streamDst, src;
        Direction link; ///< where the two packets enter router `at`
    };
    const Case cases[] = {
        // 3x4: 3 -> 7 turns north at 4 into the column module's one
        // txy VC of port 0, beside the 1 -> 10 stream's dy VC.
        {RouterArch::Roco, 3, 4, 4, 7, 1, 10, 3, Direction::West},
        // 4x3: node 5 injects 5 -> 6 twice; ids of one parity put both
        // in one quadrant, and its injection VC takes the second head
        // behind the first tail. 4 -> 7 streams East through 5.
        {RouterArch::PathSensitive, 4, 3, 5, 6, 4, 7, 5, Direction::Local},
    };
    for (const Case &c : cases) {
        SimConfig cfg = config(c.arch);
        cfg.meshWidth = c.width;
        cfg.meshHeight = c.height;
        cfg.flitsPerPacket = 16;
        Network net(cfg);
        ViolationLog log;
        for (int k = 0; k < 3; ++k)
            net.nic(c.streamSrc).enqueuePacket(c.streamDst, 0, id_, true);
        id_ += id_ & 1; // even ids: one PS quadrant for both packets
        net.nic(c.src).enqueuePacket(c.sink, 0, id_, true);
        ++id_;
        net.nic(c.src).enqueuePacket(c.sink, 0, id_, true);

        const Router &r = net.router(c.at);
        const int vcs = r.outputSlotCount();
        std::vector<std::vector<int>> occ; // [cycle + 1][vc], 0 = start
        std::vector<std::uint64_t> ready;  // SA-ready bits after cycle
        auto sample = [&] {
            occ.emplace_back();
            for (int v = 0; v < vcs; ++v)
                occ.back().push_back(r.inputVcOccupancy(c.link, v));
        };
        sample();
        Cycle t = 0;
        for (; t < 600 && net.nic(c.sink).deliveredPackets() == 0; ++t) {
            net.step(t, false, false);
            net.checkProtocolInvariants(t);
            sample();
            ready.push_back(r.stageMasks().saReady);
        }
        // The first tail ejects at the sink straight off the link.
        ASSERT_GE(t, Cycle(cfg.hopDelay) + 1) << toString(c.arch);
        const Cycle left = t - 1 - cfg.hopDelay;
        int stacked = -1;
        for (int v = 0; v < vcs; ++v) {
            if (occ[left][v] >= 2 && occ[left + 1][v] >= 1)
                stacked = v;
        }
        ASSERT_GE(stacked, 0)
            << toString(c.arch) << ": no packet queued behind the tail";
        EXPECT_TRUE(ready[left] >> stacked & 1)
            << toString(c.arch) << ": input VC " << stacked
            << " not SA-ready after its tail left in cycle " << left;
        for (; t < 2000 && net.nic(c.sink).deliveredPackets() < 2; ++t) {
            net.step(t, false, false);
            net.checkProtocolInvariants(t);
        }
        EXPECT_EQ(net.nic(c.sink).deliveredPackets(), 2u)
            << toString(c.arch);
        EXPECT_TRUE(log.got.empty()) << log.got.front().describe();
    }
}

TEST_F(WhiteboxFixture, DropVerdictAtVaDrainsOneFlitPerCycleFromTheNextCycle)
{
    // Generic XY, node 2 off-line: 0 -> 5 enters node 1 bound East into
    // the dead node, so node 1's VA discards it in the cycle its head
    // arrives; the drain retires one flit per cycle from the next one.
    SimConfig cfg = config(RouterArch::Generic);
    FaultSpec dead;
    dead.node = 2;
    dead.component = FaultComponent::Crossbar;
    Network net(cfg, {dead});
    ViolationLog log;
    net.nic(0).enqueuePacket(5, 0, id_, true);
    const Router &mid = net.router(1);
    Cycle verdict = 0;
    for (Cycle t = 0; t < 100 && net.ledger().retired < 4; ++t) {
        const std::uint64_t retired0 = net.ledger().retired;
        net.step(t, false, false);
        net.checkProtocolInvariants(t);
        const std::uint64_t retired = net.ledger().retired - retired0;
        if (verdict == 0 && mid.bufferedFlits() > 0) {
            verdict = t;
            EXPECT_EQ(retired, 0u) << "drained in the verdict cycle";
        } else if (verdict > 0) {
            EXPECT_EQ(retired, 1u) << "cycle " << t;
        }
    }
    ASSERT_GT(verdict, 0u);
    EXPECT_EQ(net.ledger().retired, 4u);
    EXPECT_EQ(net.nic(5).deliveredPackets(), 0u);
    EXPECT_EQ(mid.bufferedFlits(), 0);
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
