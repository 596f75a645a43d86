/**
 * @file
 * Protocol invariant checker tests: the wormhole order tracker on
 * hand-crafted flit streams, credit-conservation detection of an
 * injected credit leak, flit-ledger drift against the network walk,
 * stage-mask detection of a flipped stage bit,
 * and silence across healthy end-to-end runs of all three
 * architectures.
 */
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "check/invariant.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace noc::check {
namespace {

/** Collects violations and restores the previous sink on destruction. */
class Recorder : public ViolationRecorder
{
  public:
    Recorder() : prev_(setViolationRecorder(this))
    {
        setInvariantsEnabled(true);
    }
    ~Recorder() override { setViolationRecorder(prev_); }

    void onViolation(const Violation &v) override { got.push_back(v); }

    std::vector<Violation> got;

  private:
    ViolationRecorder *prev_;
};

Flit
flit(FlitType type, std::uint64_t packet, std::uint16_t seq)
{
    Flit f;
    f.type = type;
    f.packetId = packet;
    f.flitSeq = seq;
    return f;
}

using InvariantTest = testing::Test;

TEST_F(InvariantTest, TrackerAcceptsWellFormedStreams)
{
    Recorder rec;
    WormholeOrderTracker t;
    t.onFlit(flit(FlitType::Head, 7, 0), 1, 0, Direction::East, 0);
    t.onFlit(flit(FlitType::Body, 7, 1), 2, 0, Direction::East, 0);
    t.onFlit(flit(FlitType::Tail, 7, 2), 3, 0, Direction::East, 0);
    t.onFlit(flit(FlitType::HeadTail, 8, 0), 4, 0, Direction::East, 0);
    t.onFlit(flit(FlitType::Head, 9, 0), 5, 0, Direction::East, 0);
    EXPECT_TRUE(rec.got.empty());
}

TEST_F(InvariantTest, TrackerFlagsOutOfOrderFlits)
{
    Recorder rec;
    WormholeOrderTracker t;
    t.onFlit(flit(FlitType::Head, 7, 0), 10, 3, Direction::North, 2);
    t.onFlit(flit(FlitType::Body, 7, 2), 11, 3, Direction::North, 2);
    ASSERT_EQ(rec.got.size(), 1u);
    const Violation &v = rec.got.front();
    EXPECT_EQ(v.kind, InvariantKind::WormholeOrder);
    EXPECT_EQ(v.cycle, 11u);
    EXPECT_EQ(v.router, 3u);
    EXPECT_EQ(v.port, Direction::North);
    EXPECT_EQ(v.vc, 2);
    EXPECT_NE(v.detail.find("out of order"), std::string::npos);
    EXPECT_NE(v.describe().find("wormhole-order"), std::string::npos);
}

TEST_F(InvariantTest, TrackerFlagsInterleavedPackets)
{
    Recorder rec;
    WormholeOrderTracker t;
    t.onFlit(flit(FlitType::Head, 7, 0), 1, 0, Direction::East, 0);
    t.onFlit(flit(FlitType::Body, 8, 1), 2, 0, Direction::East, 0);
    ASSERT_FALSE(rec.got.empty());
    EXPECT_EQ(rec.got.front().kind, InvariantKind::WormholeOrder);
    EXPECT_NE(rec.got.front().detail.find("interleaved"),
              std::string::npos);
}

TEST_F(InvariantTest, TrackerFlagsHeadInsideAnOpenPacket)
{
    Recorder rec;
    WormholeOrderTracker t;
    t.onFlit(flit(FlitType::Head, 7, 0), 1, 0, Direction::West, 1);
    t.onFlit(flit(FlitType::Head, 8, 0), 2, 0, Direction::West, 1);
    ASSERT_EQ(rec.got.size(), 1u);
    EXPECT_NE(rec.got.front().detail.find("still open"),
              std::string::npos);
    // The tracker re-synchronises, so the new packet continues cleanly.
    rec.got.clear();
    t.onFlit(flit(FlitType::Tail, 8, 1), 3, 0, Direction::West, 1);
    EXPECT_TRUE(rec.got.empty());
}

TEST_F(InvariantTest, TrackerFlagsBodyWithNoPacketOpen)
{
    Recorder rec;
    WormholeOrderTracker t;
    t.onFlit(flit(FlitType::Body, 7, 1), 1, 0, Direction::South, 0);
    ASSERT_FALSE(rec.got.empty());
    EXPECT_NE(rec.got.front().detail.find("no packet open"),
              std::string::npos);
}

TEST_F(InvariantTest, CreditLeakIsDetectedOnEveryArchitecture)
{
    for (RouterArch arch : {RouterArch::Generic, RouterArch::PathSensitive,
                            RouterArch::Roco}) {
        SimConfig cfg;
        cfg.meshWidth = 3;
        cfg.meshHeight = 3;
        cfg.arch = arch;
        cfg.injectionRate = 0.0;
        Network net(cfg);

        Recorder rec;
        net.checkProtocolInvariants(0);
        EXPECT_TRUE(rec.got.empty()) << "freshly built network must be "
                                        "conservation-clean";

        net.router(4).debugCorruptCredit(Direction::East, 0);
        net.checkProtocolInvariants(1);
        ASSERT_FALSE(rec.got.empty()) << toString(arch);
        const Violation &v = rec.got.front();
        EXPECT_EQ(v.kind, InvariantKind::CreditConservation);
        EXPECT_EQ(v.cycle, 1u);
        EXPECT_EQ(v.router, 4u);
        EXPECT_EQ(v.port, Direction::East);
        EXPECT_EQ(v.vc, 0);
    }
}

TEST_F(InvariantTest, FlitLedgerDriftIsDetected)
{
    SimConfig cfg;
    cfg.meshWidth = 3;
    cfg.meshHeight = 3;
    cfg.injectionRate = 0.0;
    Network net(cfg);
    std::uint64_t packetId = 1;
    net.nic(0).enqueuePacket(8, 0, packetId, true);

    Recorder rec;
    net.checkProtocolInvariants(0);
    EXPECT_TRUE(rec.got.empty());

    // One queued flit the ledger never counted; the per-class split
    // stays consistent, so only the walk can tell.
    FlitLedger l = net.ledger();
    ASSERT_GT(l.created, 0u);
    int c = 0;
    while (l.createdByClass[c] == 0)
        ++c;
    --l.created;
    --l.createdByClass[c];
    net.setLedgerTotals(l);
    net.checkProtocolInvariants(1);
    ASSERT_EQ(rec.got.size(), 1u);
    EXPECT_EQ(rec.got.front().kind, InvariantKind::CreditConservation);
    EXPECT_NE(rec.got.front().detail.find("flit ledger"), std::string::npos);
}

TEST_F(InvariantTest, StageMaskCorruptionIsDetectedOnEveryArchitecture)
{
    for (RouterArch arch : {RouterArch::Generic, RouterArch::PathSensitive,
                            RouterArch::Roco}) {
        SimConfig cfg;
        cfg.meshWidth = 3;
        cfg.meshHeight = 3;
        cfg.arch = arch;
        cfg.injectionRate = 0.0;
        Network net(cfg);
        // 3 -> 5 and 4 -> 5 contend for node 4's East output, so some
        // cycle ends with a flit of node 4 holding a stage bit.
        std::uint64_t packetId = 1;
        for (NodeId src : {3u, 4u, 3u, 4u})
            net.nic(src).enqueuePacket(5, 0, packetId, true);
        std::uint64_t held = 0;
        for (Cycle t = 0; t < 50 && held == 0; ++t) {
            net.step(t, false, false);
            const StageMasks m = net.router(4).stageMasks();
            held = m.vaWait | m.saReady | m.drainReady;
        }
        ASSERT_NE(held, 0u) << toString(arch);

        Recorder rec;
        net.checkProtocolInvariants(100);
        EXPECT_TRUE(rec.got.empty()) << toString(arch);
        for (std::uint64_t StageMasks::*mask :
             {&StageMasks::vaWait, &StageMasks::saReady,
              &StageMasks::drainReady}) {
            // A bit on a VC with nothing to do, and a flipped bit on a
            // VC that holds one.
            for (int vc : {std::countr_zero(~held), std::countr_zero(held)}) {
                net.router(4).debugCorruptStageMask(mask, vc);
                net.checkProtocolInvariants(101);
                ASSERT_EQ(rec.got.size(), 1u) << toString(arch);
                const Violation &v = rec.got.front();
                EXPECT_EQ(v.kind, InvariantKind::StageMask);
                EXPECT_EQ(v.cycle, 101u);
                EXPECT_EQ(v.router, 4u);
                EXPECT_EQ(v.vc, vc);
                EXPECT_NE(v.describe().find("stage-mask"),
                          std::string::npos);
                net.router(4).debugCorruptStageMask(mask, vc); // undo
                rec.got.clear();
                net.checkProtocolInvariants(102);
                EXPECT_TRUE(rec.got.empty()) << toString(arch);
            }
        }
    }
}

TEST_F(InvariantTest, HealthyRunsStaySilent)
{
    for (RouterArch arch : {RouterArch::Generic, RouterArch::PathSensitive,
                            RouterArch::Roco}) {
        Recorder rec;
        SimConfig cfg;
        cfg.meshWidth = 4;
        cfg.meshHeight = 4;
        cfg.arch = arch;
        cfg.routing = RoutingKind::Adaptive;
        cfg.injectionRate = 0.10;
        cfg.warmupPackets = 50;
        cfg.measurePackets = 300;
        Simulator sim(cfg);
        SimResult r = sim.run();
        EXPECT_FALSE(r.timedOut);
        for (const Violation &v : rec.got)
            ADD_FAILURE() << toString(arch) << ": " << v.describe();
    }
}

TEST_F(InvariantTest, RecorderReportsUnderActiveFaultInjection)
{
    // With a recorder installed, runs against an actively degraded
    // network must REPORT violations (if any) rather than abort, on
    // every architecture: the fault machinery itself keeps the
    // protocol invariants satisfied, so a healthy-but-faulty run both
    // completes and stays silent.  Table 3 reactions exercised: dead
    // row module (RoCo recycles/drops), dead node (generic/PS).
    for (RouterArch arch : {RouterArch::Generic, RouterArch::PathSensitive,
                            RouterArch::Roco}) {
        Recorder rec;
        SimConfig cfg;
        cfg.meshWidth = 4;
        cfg.meshHeight = 4;
        cfg.arch = arch;
        cfg.routing = RoutingKind::Adaptive;
        cfg.injectionRate = 0.10;
        cfg.warmupPackets = 50;
        cfg.measurePackets = 300;
        std::vector<FaultSpec> faults;
        FaultSpec f;
        f.node = 5;
        f.component = FaultComponent::Crossbar;
        f.module = Module::Row;
        faults.push_back(f);
        f.node = 10;
        f.component = FaultComponent::VcBuffer;
        f.module = Module::Column;
        f.portIndex = 0;
        f.vcIndex = 0;
        faults.push_back(f);
        Simulator sim(cfg, faults);
        SimResult r = sim.run();
        // Degraded networks may strand packets (completion < 1), but
        // the run must terminate and the checker must stay a reporter:
        // reaching this line at all proves no abort happened.
        EXPECT_FALSE(r.timedOut) << toString(arch);
        for (const Violation &v : rec.got)
            ADD_FAILURE() << toString(arch)
                          << " (faulty): " << v.describe();
    }
}

TEST_F(InvariantTest, RuntimeGateSuppressesChecks)
{
    Recorder rec;
    SimConfig cfg;
    cfg.meshWidth = 3;
    cfg.meshHeight = 3;
    cfg.arch = RouterArch::Roco;
    cfg.injectionRate = 0.0;
    Network net(cfg);
    net.router(4).debugCorruptCredit(Direction::East, 0);

    setInvariantsEnabled(false);
    net.checkProtocolInvariants(1);
    EXPECT_TRUE(rec.got.empty());

    setInvariantsEnabled(true);
    net.checkProtocolInvariants(2);
    EXPECT_FALSE(rec.got.empty());
}

} // namespace
} // namespace noc::check
