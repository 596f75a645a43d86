/**
 * @file
 * Link-latency equivalence matrix: every architecture over hop and
 * credit delays other than the 3 / 1 defaults. Between them the delays
 * need rings for L + 1 = 2, 3, 4, 5 and 8 slots, so both exact and
 * rounded-up power-of-two rings run. Each run must drain, and the
 * serial, 2-shard and no-skip engines must agree bit for bit,
 * fault-free and under one Table-3 critical fault.
 */
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "fault/fault_injector.h"
#include "result_print.h"
#include "sim/simulator.h"

namespace noc {
namespace {

struct LinkDelays {
    int hop;
    int credit;
};

struct LinkRun {
    SimResult r;
    FlitLedger ledger;
    std::uint64_t stepsScheduled = 0;
    int inNetwork = 0; ///< flits left in router buffers and links
    /** Flits left in the source queues of off-line nodes, which never
     *  inject (a dead generic / Path-Sensitive node strands its PE). */
    std::uint64_t strandedAtDeadSources = 0;
};

LinkRun
runOnce(SimConfig cfg, const std::vector<FaultSpec> &faults, int shards,
        bool idleSkip)
{
    cfg.shards = shards;
    cfg.idleSkip = idleSkip;
    Simulator sim(cfg, faults);
    LinkRun out;
    out.r = sim.run();
    out.ledger = sim.network().ledger();
    out.stepsScheduled = sim.network().routerStepsScheduled();
    const Network &net = sim.network();
    out.inNetwork = net.flitsInFlight();
    for (NodeId n = 0; n < static_cast<NodeId>(net.numNodes()); ++n) {
        if (net.router(n).faultState().nodeDead)
            out.strandedAtDeadSources += net.nic(n).queuedFlits();
    }
    return out;
}

void
expectSame(const LinkRun &a, const LinkRun &b, const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.r, b.r);
    EXPECT_EQ(a.ledger, b.ledger);
    EXPECT_EQ(a.stepsScheduled, b.stepsScheduled);
}

class LinkLatencyTest
    : public testing::TestWithParam<std::tuple<RouterArch, LinkDelays>>
{
};

TEST_P(LinkLatencyTest, DrainsAndEnginesAgree)
{
    const auto [arch, delays] = GetParam();
    SimConfig cfg;
    cfg.arch = arch;
    cfg.routing = RoutingKind::XY;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.injectionRate = 0.15;
    cfg.warmupPackets = 20;
    cfg.measurePackets = 150;
    cfg.maxCycles = 20000;
    cfg.seed = 0x5107;
    cfg.hopDelay = delays.hop;
    cfg.creditDelay = delays.credit;

    const std::vector<FaultSpec> critical = placeRandomFaults(
        MeshTopology(4, 4), FaultClass::RouterCentricCritical, 1,
        cfg.vcsPerPort, 3);
    for (const std::vector<FaultSpec> &faults :
         {std::vector<FaultSpec>{}, critical}) {
        const char *label = faults.empty() ? "fault-free" : "1-critical";
        SCOPED_TRACE(label);
        const LinkRun serial = runOnce(cfg, faults, 1, true);
        // Drained: nothing left in the network, and every flit created
        // was delivered, discarded or never left an off-line source.
        EXPECT_FALSE(serial.r.timedOut);
        EXPECT_EQ(serial.inNetwork, 0);
        EXPECT_EQ(serial.ledger.created,
                  serial.ledger.retired + serial.strandedAtDeadSources);
        EXPECT_GT(serial.r.delivered, 0u);
        expectSame(serial, runOnce(cfg, faults, 2, true), "2 shards");
        expectSame(serial, runOnce(cfg, faults, 1, false), "no idle-skip");
    }
}

const LinkDelays kDelays[] = {{1, 1}, {2, 2}, {4, 3}, {7, 1}};

std::string
caseName(const testing::TestParamInfo<LinkLatencyTest::ParamType> &info)
{
    const char *const arch[] = {"Generic", "PathSensitive", "RoCo"};
    const LinkDelays d = std::get<1>(info.param);
    return std::string(arch[static_cast<int>(std::get<0>(info.param))]) +
           "_hop" + std::to_string(d.hop) + "_credit" +
           std::to_string(d.credit);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LinkLatencyTest,
    testing::Combine(testing::Values(RouterArch::Generic,
                                     RouterArch::PathSensitive,
                                     RouterArch::Roco),
                     testing::ValuesIn(kDelays)),
    caseName);

} // namespace
} // namespace noc
