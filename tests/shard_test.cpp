/**
 * @file
 * Tests for the sharded execution engine (src/par) and its topology
 * underpinnings: the pentachromatic step schedule, the shard
 * partitioner, the spin barrier, and — the engine's whole contract —
 * bit-identical results across shard counts for every router
 * architecture, routing algorithm and fault configuration.
 *
 * Suite names contain "Shard" on purpose: the ThreadSanitizer CI job
 * selects them by that substring.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fault/fault_injector.h"
#include "obs/recorder.h"
#include "par/barrier.h"
#include "par/shard_engine.h"
#include "result_print.h"
#include "sim/simulator.h"
#include "topology/partition.h"

namespace noc {
namespace {

// ---------------------------------------------------------------- schedule

TEST(ShardScheduleTest, SamePhaseNodesAreAtLeastDistanceThreeApart)
{
    // The schedule's soundness condition: two routers stepped in the
    // same phase must never share a footprint node, which requires
    // Manhattan distance >= 3 (each step touches itself + neighbours).
    const int w = 9, h = 7;
    for (int y1 = 0; y1 < h; ++y1)
        for (int x1 = 0; x1 < w; ++x1)
            for (int y2 = 0; y2 < h; ++y2)
                for (int x2 = 0; x2 < w; ++x2) {
                    if (x1 == x2 && y1 == y2)
                        continue;
                    if (stepPhase(x1, y1) != stepPhase(x2, y2))
                        continue;
                    int dist = std::abs(x1 - x2) + std::abs(y1 - y2);
                    EXPECT_GE(dist, 3)
                        << "(" << x1 << "," << y1 << ") vs (" << x2 << ","
                        << y2 << ")";
                }
}

TEST(ShardScheduleTest, PhasesAreInRange)
{
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x) {
            int p = stepPhase(x, y);
            EXPECT_GE(p, 0);
            EXPECT_LT(p, kNumStepPhases);
        }
}

// -------------------------------------------------------------- partition

TEST(ShardPlanTest, PartitionCoversEveryNodeExactlyOnce)
{
    for (int shards : {1, 2, 3, 4, 5, 6, 7, 8}) {
        ShardPlan plan(8, 8, shards);
        EXPECT_EQ(plan.shards(), shards);
        std::vector<int> seen(64, 0);
        for (int s = 0; s < plan.shards(); ++s) {
            for (NodeId n : plan.nodes(s)) {
                EXPECT_EQ(plan.shardOf(n), s);
                ++seen[n];
            }
        }
        for (int n = 0; n < 64; ++n)
            EXPECT_EQ(seen[n], 1) << "node " << n << " at " << shards
                                  << " shards";
    }
}

TEST(ShardPlanTest, PhaseNodesPartitionTheShard)
{
    ShardPlan plan(8, 8, 4);
    MeshTopology topo(8, 8);
    for (int s = 0; s < plan.shards(); ++s) {
        std::size_t total = 0;
        for (int p = 0; p < kNumStepPhases; ++p) {
            for (NodeId n : plan.phaseNodes(s, p)) {
                Coord c = topo.coord(n);
                EXPECT_EQ(stepPhase(c.x, c.y), p);
                EXPECT_EQ(plan.shardOf(n), s);
                ++total;
            }
        }
        EXPECT_EQ(total, plan.nodes(s).size());
    }
}

TEST(ShardPlanTest, BandsAreContiguousIdRanges)
{
    // Each shard owns one run of consecutive ids, in shard order, so
    // its routers, NICs and idle-skip flags are contiguous in memory.
    for (auto [w, h, shards] : {std::tuple{8, 8, 2}, {8, 8, 3}, {16, 16, 4},
                                {10, 6, 7}, {4, 4, 5}, {5, 3, 15}}) {
        SCOPED_TRACE(testing::Message()
                     << w << "x" << h << " @ " << shards << " shards");
        ShardPlan plan(w, h, shards);
        NodeId next = 0;
        for (int s = 0; s < plan.shards(); ++s) {
            for (NodeId n : plan.nodes(s))
                EXPECT_EQ(n, next++);
        }
        EXPECT_EQ(next, static_cast<NodeId>(w * h));
    }
}

TEST(ShardPlanTest, BandSizesDifferByAtMostOne)
{
    for (int shards = 1; shards <= 12; ++shards) {
        ShardPlan plan(10, 6, shards);
        std::size_t lo = plan.nodes(0).size(), hi = lo;
        for (int s = 1; s < plan.shards(); ++s) {
            lo = std::min(lo, plan.nodes(s).size());
            hi = std::max(hi, plan.nodes(s).size());
        }
        EXPECT_LE(hi - lo, 1u) << shards << " shards";
    }
    // Whole rows whenever the shard count divides the height.
    ShardPlan plan(16, 16, 4);
    for (int s = 0; s < 4; ++s) {
        ASSERT_EQ(plan.nodes(s).size(), 64u);
        EXPECT_EQ(plan.nodes(s).front(), static_cast<NodeId>(64 * s));
    }
}

TEST(ShardPlanTest, BorderShardsReachPastThinBands)
{
    // One-row bands: a node two rows away belongs to the band beyond
    // the neighbour, so that band borders too.
    ShardPlan thin(8, 8, 8);
    EXPECT_EQ(thin.borderShards(0), (std::vector<int>{1, 2}));
    EXPECT_EQ(thin.borderShards(3), (std::vector<int>{1, 2, 4, 5}));
    // Four-row bands: only the adjacent bands.
    ShardPlan wide(16, 16, 4);
    EXPECT_EQ(wide.borderShards(0), (std::vector<int>{1}));
    EXPECT_EQ(wide.borderShards(2), (std::vector<int>{1, 3}));
    EXPECT_TRUE(ShardPlan(16, 16, 1).borderShards(0).empty());
}

TEST(ShardPlanTest, ShardCountIsClamped)
{
    EXPECT_EQ(ShardPlan(2, 2, 64).shards(), 4);
    EXPECT_EQ(ShardPlan(2, 2, 0).shards(), 1);
    EXPECT_EQ(ShardPlan(2, 2, -3).shards(), 1);
}

TEST(ShardPlanTest, EffectiveShardsPrefersConfigOverEnvironment)
{
    SimConfig cfg;
    ASSERT_EQ(setenv("NOC_SHARDS", "3", 1), 0);
    cfg.shards = 0;
    EXPECT_EQ(par::effectiveShards(cfg, 64), 3);
    cfg.shards = 2;
    EXPECT_EQ(par::effectiveShards(cfg, 64), 2);
    ASSERT_EQ(unsetenv("NOC_SHARDS"), 0);
    cfg.shards = 0;
    EXPECT_EQ(par::effectiveShards(cfg, 64), 1);
    cfg.shards = 500;
    EXPECT_EQ(par::effectiveShards(cfg, 64), 64);

    // A malformed NOC_SHARDS is fatal, never a silent serial run.
    cfg.shards = 0;
    for (const char *bad : {"4x", "four", "0", "-2", "99999999999"}) {
        ASSERT_EQ(setenv("NOC_SHARDS", bad, 1), 0);
        EXPECT_EXIT(par::effectiveShards(cfg, 64),
                    testing::ExitedWithCode(1),
                    std::string("NOC_SHARDS='") + bad + "'")
            << bad;
    }
    ASSERT_EQ(unsetenv("NOC_SHARDS"), 0);
}

// ---------------------------------------------------------------- barrier

TEST(ShardBarrierTest, EpilogueRunsOncePerCycleSingleThreaded)
{
    constexpr int kParties = 4;
    constexpr int kCycles = 2000;
    par::SpinBarrier barrier(kParties);
    std::atomic<int> inEpilogue{0};
    std::vector<std::uint64_t> cells(kParties, 0);
    std::uint64_t reduced = 0;
    int epilogues = 0;

    auto work = [&](int me) {
        for (int c = 0; c < kCycles; ++c) {
            cells[static_cast<std::size_t>(me)] += static_cast<std::uint64_t>(me) + 1;
            barrier.arriveAndWait([&] {
                // Single-threaded section: no concurrent arrivals.
                EXPECT_EQ(inEpilogue.fetch_add(1), 0);
                std::uint64_t sum = 0;
                for (std::uint64_t v : cells)
                    sum += v;
                reduced = sum;
                ++epilogues;
                inEpilogue.fetch_sub(1);
            });
            // The release/acquire epoch publishes the reduction to all.
            std::uint64_t expect =
                static_cast<std::uint64_t>(c + 1) * (1 + 2 + 3 + 4);
            EXPECT_EQ(reduced, expect);
        }
    };

    std::vector<std::thread> threads;
    for (int t = 1; t < kParties; ++t)
        threads.emplace_back(work, t);
    work(0);
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(epilogues, kCycles);
}

TEST(ShardBarrierTest, EpilogueHandoffPublishesPlainState)
{
    // Mirrors the engine's Shared block (now / stop / totals, all
    // NOC_EPILOGUE_STATE): the epilogue writes *plain* non-atomic
    // fields and every worker reads them right after release — only
    // the epoch's release/acquire pair makes this race-free, which is
    // exactly what the tsan CI job verifies here.
    struct PlainShared {
        std::uint64_t now = 0;
        std::uint64_t totals = 0;
        bool stop = false;
    };
    constexpr int kParties = 4;
    constexpr std::uint64_t kCycles = 1500;
    par::SpinBarrier barrier(kParties);
    PlainShared sh;
    std::vector<std::uint64_t> contrib(kParties, 0);

    auto work = [&](int me) {
        for (;;) {
            contrib[static_cast<std::size_t>(me)] +=
                static_cast<std::uint64_t>(me) + 1;
            barrier.arriveAndWait([&] {
                sh.now += 1;
                std::uint64_t sum = 0;
                for (std::uint64_t v : contrib)
                    sum += v;
                sh.totals = sum;
                if (sh.now == kCycles)
                    sh.stop = true;
            });
            // Plain reads of epilogue state, published by the epoch.
            EXPECT_EQ(sh.totals, sh.now * (1 + 2 + 3 + 4));
            if (sh.stop)
                break;
        }
    };

    std::vector<std::thread> threads;
    for (int t = 1; t < kParties; ++t)
        threads.emplace_back(work, t);
    work(0);
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(sh.now, kCycles);
    EXPECT_EQ(sh.totals, kCycles * (1 + 2 + 3 + 4));
}

// ------------------------------------------------------------ equivalence

struct RunObservation {
    SimResult r;
    FlitLedger ledger;
    std::uint64_t genPackets = 0;
    std::uint64_t obsE2e = 0, obsMeasured = 0, obsSampled = 0,
                  obsDropped = 0;
};

RunObservation
observeRun(SimConfig cfg, const std::vector<FaultSpec> &faults, int shards)
{
    cfg.shards = shards;
    Simulator sim(cfg, faults);
    obs::Recorder::Options opt;
    opt.nodes = cfg.meshWidth * cfg.meshHeight;
    opt.meshWidth = cfg.meshWidth;
    opt.meshHeight = cfg.meshHeight;
    opt.arch = cfg.arch;
    auto rec = std::make_shared<obs::Recorder>(opt);
    sim.attachObserver(rec);
    RunObservation out;
    out.r = sim.run();
    out.ledger = sim.network().ledger();
    out.genPackets = sim.network().packetsGenerated();
    const obs::Summary s = rec->summary();
    out.obsE2e = s.endToEnd.count();
    out.obsMeasured = s.endToEndMeasured.count();
    out.obsSampled = s.counters.sampledPackets;
    out.obsDropped = s.counters.ringDropped;
    return out;
}

void
expectIdentical(const RunObservation &serial, const RunObservation &sharded,
                const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(serial.r, sharded.r);
    EXPECT_EQ(serial.ledger, sharded.ledger);
    EXPECT_EQ(serial.genPackets, sharded.genPackets);
    EXPECT_EQ(serial.obsE2e, sharded.obsE2e);
    EXPECT_EQ(serial.obsMeasured, sharded.obsMeasured);
    EXPECT_EQ(serial.obsSampled, sharded.obsSampled);
    EXPECT_EQ(serial.obsDropped, sharded.obsDropped);
}

SimConfig
equivalenceConfig(RouterArch arch, RoutingKind routing)
{
    SimConfig cfg;
    cfg.arch = arch;
    cfg.routing = routing;
    cfg.traffic = TrafficKind::Uniform;
    cfg.injectionRate = 0.2;
    cfg.meshWidth = 6;
    cfg.meshHeight = 6;
    cfg.warmupPackets = 15;
    cfg.measurePackets = 90;
    // Faulted minimal routings cannot drain; cap the idle-window wait
    // so the matrix stays fast (the cut lands identically either way).
    cfg.maxCycles = 4000;
    cfg.seed = 0xBEEF;
    return cfg;
}

/** Serial vs 2, 4 and 8 shards for every routing x fault combo. */
void
runEquivalenceMatrix(RouterArch arch)
{
    MeshTopology topo(6, 6);
    std::vector<FaultSpec> critical = placeRandomFaults(
        topo, FaultClass::RouterCentricCritical, 2, 3, 11);
    std::vector<FaultSpec> noncritical = placeRandomFaults(
        topo, FaultClass::MessageCentricNonCritical, 2, 3, 22);

    const struct {
        const char *label;
        const std::vector<FaultSpec> *faults;
    } faultRows[] = {{"fault-free", nullptr},
                     {"2-critical", &critical},
                     {"2-noncritical", &noncritical}};

    for (RoutingKind routing :
         {RoutingKind::XY, RoutingKind::XYYX, RoutingKind::Adaptive}) {
        SimConfig cfg = equivalenceConfig(arch, routing);
        for (const auto &row : faultRows) {
            std::vector<FaultSpec> faults =
                row.faults ? *row.faults : std::vector<FaultSpec>{};
            RunObservation serial = observeRun(cfg, faults, 1);
            for (int shards : {2, 4, 8}) {
                char what[96];
                std::snprintf(what, sizeof what, "%s/%s/%s @ %d shards",
                              toString(arch), toString(routing), row.label,
                              shards);
                expectIdentical(serial, observeRun(cfg, faults, shards),
                                what);
            }
        }
    }
}

TEST(ShardEquivalenceTest, GenericRouterMatchesSerial)
{
    runEquivalenceMatrix(RouterArch::Generic);
}

TEST(ShardEquivalenceTest, PathSensitiveRouterMatchesSerial)
{
    runEquivalenceMatrix(RouterArch::PathSensitive);
}

TEST(ShardEquivalenceTest, RocoRouterMatchesSerial)
{
    runEquivalenceMatrix(RouterArch::Roco);
}

TEST(ShardEquivalenceTest, NonUniformTrafficAndBigMeshMatchSerial)
{
    // A non-square mesh (exercises the partitioner's uneven splits)
    // and a non-uniform pattern, at a shard count that doesn't divide
    // the mesh evenly.
    SimConfig cfg;
    cfg.arch = RouterArch::Roco;
    cfg.routing = RoutingKind::Adaptive;
    cfg.traffic = TrafficKind::Hotspot;
    cfg.injectionRate = 0.15;
    cfg.meshWidth = 10;
    cfg.meshHeight = 6;
    cfg.warmupPackets = 20;
    cfg.measurePackets = 120;
    cfg.maxCycles = 20000;
    RunObservation serial = observeRun(cfg, {}, 1);
    for (int shards : {3, 5, 7})
        expectIdentical(serial, observeRun(cfg, {}, shards),
                        "10x6 hotspot");
}

} // namespace
} // namespace noc
