/**
 * @file
 * Tests for the shard-ownership race checker (par/race_check.h).
 *
 * Two layers:
 *
 *  1. Seeded-bug fixtures that drive the checker directly. They pin
 *     down that a broken colouring, a non-atomic mirror access or
 *     a boundary node stepped in the interior window is caught, naming
 *     both routers, their shards and the cycle.
 *
 *  2. A clean-tree matrix over router architecture x routing x the
 *     Table-3 fault classes, serial and 4-shard, which must log real
 *     records through the run loop's hooks and report zero findings.
 *
 * Suite names contain "RaceCheck" on purpose: the sharded CI job's
 * race-check step selects them by that substring.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault_injector.h"
#include "par/race_check.h"
#include "sim/simulator.h"
#include "topology/partition.h"

namespace noc {
namespace {

using par::AccessClass;
using par::AccessRecord;
using par::RaceChecker;

/**
 * The seeded bug: (x + y) % 5 looks like a five-colouring but puts
 * nodes at Manhattan distance 2 (e.g. (0,1) and (1,0)) in the same
 * phase, so their step footprints overlap on shared neighbours.
 */
int
brokenPhase(int x, int y)
{
    return (x + y) % kNumStepPhases;
}

/** Feeds one superstep of a whole mesh under @p phaseOf to @p race. */
template <typename PhaseFn>
void
feedCycle(RaceChecker &race, int w, int h, int shards, PhaseFn phaseOf)
{
    for (int p = 0; p < kNumStepPhases; ++p) {
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                if (phaseOf(x, y) != p)
                    continue;
                NodeId n = static_cast<NodeId>(y * w + x);
                int shard = shards > 1 ? (x < w / 2 ? 0 : 1) : 0;
                race.noteStep(n, p, shard);
            }
        }
    }
}

// ------------------------------------------------------ seeded fixtures

TEST(RaceCheckFixtureTest, BrokenColouringIsCaught)
{
    RaceChecker race(4, 4);
    race.beginRun(2);
    feedCycle(race, 4, 4, 2, brokenPhase);
    race.endCycle(42);

    ASSERT_GT(race.findingsTotal(), 0u)
        << "the broken (x+y)%5 colouring must trip the checker";
    const std::string &f = race.findings().front();
    // The diagnostic names both routers, the phase pair and the cycle.
    EXPECT_NE(f.find("cycle 42"), std::string::npos) << f;
    EXPECT_NE(f.find("routers "), std::string::npos) << f;
    EXPECT_NE(f.find(") and "), std::string::npos) << f;
    EXPECT_NE(f.find("phase pair"), std::string::npos) << f;
    EXPECT_NE(f.find("distance-2 colouring is violated"),
              std::string::npos)
        << f;
}

TEST(RaceCheckFixtureTest, BrokenColouringIsCaughtEvenSingleThreaded)
{
    // The schedule invariant is checked, not the thread interleaving:
    // one shard (one thread) must still catch the broken colouring —
    // exactly the case TSan structurally cannot see.
    RaceChecker race(4, 4);
    race.beginRun(1);
    feedCycle(race, 4, 4, 1, brokenPhase);
    race.endCycle(7);
    EXPECT_GT(race.findingsTotal(), 0u);
}

TEST(RaceCheckFixtureTest, AdjacentSamePhaseStepsConflictOnRouterState)
{
    // Distance-1 violation: the neighbour's own step and this router's
    // reserveInputVc handshake share the neighbour's router state.
    RaceChecker race(4, 4);
    race.beginRun(2);
    race.noteStep(0, 0, 0);
    race.noteStep(1, 0, 1);
    race.endCycle(9);
    ASSERT_GT(race.findingsTotal(), 0u);
    EXPECT_NE(race.findings().front().find("router-private state"),
              std::string::npos)
        << race.findings().front();
}

TEST(RaceCheckFixtureTest, NonAtomicMirrorBumpIsCaught)
{
    RaceChecker race(4, 4);
    race.beginRun(2);
    // Router 6 bumps router 5's west-facing occupancy mirror with a
    // plain (non-atomic) store: object = N + target*4 + dirAtTarget.
    AccessRecord rec;
    rec.object = 16 + 5 * kNumCardinal +
                 static_cast<int>(Direction::West);
    rec.actor = 6;
    rec.phase = 2;
    rec.cls = AccessClass::Mirror;
    rec.shard = 1;
    rec.atomicOp = false;
    race.noteAccess(rec, 1);
    race.endCycle(3);

    ASSERT_EQ(race.findingsTotal(), 1u);
    const std::string &f = race.findings().front();
    EXPECT_NE(f.find("cycle 3"), std::string::npos) << f;
    EXPECT_NE(f.find("router 6"), std::string::npos) << f;
    EXPECT_NE(f.find("non-atomic"), std::string::npos) << f;
    EXPECT_NE(f.find("router 5's west occupancy mirror"),
              std::string::npos)
        << f;
}

TEST(RaceCheckFixtureTest, WakeFlagStoresCommute)
{
    // Two same-phase routers poking the same wake flag is sanctioned:
    // both store 1, so the stores commute.
    RaceChecker race(4, 4);
    race.beginRun(2);
    AccessRecord rec;
    rec.object = 16 * (1 + kNumCardinal) + 5; // router 5's wake flag
    rec.cls = AccessClass::Wake;
    rec.phase = 1;
    rec.actor = 4;
    rec.shard = 0;
    race.noteAccess(rec, 0);
    rec.actor = 6;
    rec.shard = 1;
    race.noteAccess(rec, 1);
    race.endCycle(1);
    EXPECT_EQ(race.findingsTotal(), 0u);
}

/**
 * Feeds one superstep of @p plan's split-phase schedule: each shard's
 * boundary nodes, then its interior nodes in the interior window.
 * @p misfiled, when set, is stepped in the interior window although
 * the plan files it as a boundary node.
 */
void
feedPlanCycle(RaceChecker &race, const ShardPlan &plan,
              NodeId misfiled = kInvalidNode)
{
    for (int p = 0; p < kNumStepPhases; ++p)
        for (int s = 0; s < plan.shards(); ++s) {
            for (NodeId n : plan.boundaryNodes(s, p))
                race.noteStep(n, p, s, n == misfiled);
            for (NodeId n : plan.interiorNodes(s, p))
                race.noteStep(n, p, s, true);
        }
}

TEST(RaceCheckFixtureTest, CleanScheduleHasNoFindings)
{
    // The real pentachromatic schedule over the real shard plan, in
    // its boundary and interior windows: zero findings by
    // construction, across several supersteps.
    for (int shards : {2, 4}) {
        const int w = 8, h = 8;
        ShardPlan plan(w, h, shards);
        RaceChecker race(w, h);
        race.beginRun(plan.shards());
        for (Cycle c = 0; c < 10; ++c) {
            feedPlanCycle(race, plan);
            race.endCycle(c);
        }
        EXPECT_EQ(race.findingsTotal(), 0u) << shards << " shards";
        EXPECT_EQ(race.cyclesChecked(), 10u);
        EXPECT_GT(race.recordsLogged(), 0u);
    }
}

TEST(RaceCheckFixtureTest, BoundaryNodeFiledAsInteriorIsCaught)
{
    // 8x8 in two bands (rows 0-3, 4-7). Router 27 = (3, 3) sits next to
    // router 35 = (3, 4) across the cut; stepping it in the interior
    // window would let it run unordered against shard 1's steps.
    const int w = 8, h = 8;
    ShardPlan plan(w, h, 2);
    const NodeId misfiled = 27;
    ASSERT_EQ(plan.shardOf(misfiled), 0);
    const auto &b = plan.boundaryNodes(0, stepPhase(3, 3));
    ASSERT_NE(std::find(b.begin(), b.end(), misfiled), b.end());

    RaceChecker race(w, h);
    race.beginRun(plan.shards());
    feedPlanCycle(race, plan, misfiled);
    race.endCycle(13);

    ASSERT_GT(race.findingsTotal(), 0u);
    const std::string &f = race.findings().front();
    EXPECT_NE(f.find("cycle 13"), std::string::npos) << f;
    EXPECT_NE(f.find("router 27 (shard 0"), std::string::npos) << f;
    EXPECT_NE(f.find("interior window"), std::string::npos) << f;
    EXPECT_NE(f.find("(shard 1, phase"), std::string::npos) << f;
    EXPECT_NE(f.find("filed as interior"), std::string::npos) << f;
    // The other router is a shard-1 node within distance 2 of 27.
    const std::size_t at = f.find("and router ");
    ASSERT_NE(at, std::string::npos) << f;
    const NodeId other =
        static_cast<NodeId>(std::stoi(f.substr(at + 11)));
    EXPECT_EQ(plan.shardOf(other), 1) << f;
    EXPECT_LE(std::abs(static_cast<int>(other % w) - 3) +
                  std::abs(static_cast<int>(other / w) - 3),
              2)
        << f;
    // The colouring itself is sound: the window rule alone fired.
    for (const std::string &g : race.findings())
        EXPECT_EQ(g.find("same schedule phase"), std::string::npos) << g;
}

TEST(RaceCheckFixtureTest, PlanWindowsAreCleanOnRandomMeshes)
{
    // The split the engine steps by, on random meshes and shard counts:
    // neither the same-phase nor the interior-window rule may fire.
    Rng rng(0x5EED, 1);
    for (int iter = 0; iter < 25; ++iter) {
        const int w = 1 + static_cast<int>(rng.nextRange(16));
        const int h = 1 + static_cast<int>(rng.nextRange(16));
        const int shards = 1 + static_cast<int>(rng.nextRange(8));
        ShardPlan plan(w, h, shards);
        RaceChecker race(w, h);
        race.beginRun(plan.shards());
        feedPlanCycle(race, plan);
        race.endCycle(0);
        EXPECT_EQ(race.findingsTotal(), 0u)
            << w << "x" << h << " @ " << shards << " shards: "
            << race.findings().front();
    }
}

TEST(RaceCheckFixtureTest, FindingsAreDeterministic)
{
    auto runOnce = [] {
        RaceChecker race(4, 4);
        race.beginRun(2);
        feedCycle(race, 4, 4, 2, brokenPhase);
        race.endCycle(5);
        return race.findings();
    };
    EXPECT_EQ(runOnce(), runOnce());
}

TEST(RaceCheckFixtureTest, ObjectNamesDecodeEveryClass)
{
    RaceChecker race(4, 4);
    EXPECT_EQ(race.objectName(3), "router 3's router-private state");
    EXPECT_EQ(race.objectName(16 + 2 * kNumCardinal +
                              static_cast<int>(Direction::East)),
              "router 2's east occupancy mirror");
    EXPECT_EQ(race.objectName(16 * (1 + kNumCardinal) + 7),
              "router 7's wake flag");
}

TEST(RaceCheckFixtureTest, EnvGateIsOffUnlessOne)
{
    ASSERT_EQ(unsetenv("NOC_RACE_CHECK"), 0);
    EXPECT_FALSE(RaceChecker::enabledFromEnv());
    ASSERT_EQ(setenv("NOC_RACE_CHECK", "0", 1), 0);
    EXPECT_FALSE(RaceChecker::enabledFromEnv());
    ASSERT_EQ(setenv("NOC_RACE_CHECK", "1", 1), 0);
    EXPECT_TRUE(RaceChecker::enabledFromEnv());
    ASSERT_EQ(unsetenv("NOC_RACE_CHECK"), 0);
}

TEST(RaceCheckFixtureDeathTest, FailFastAbortsOnFirstFinding)
{
    RaceChecker race(4, 4);
    race.beginRun(2);
    race.setFailFast(true);
    feedCycle(race, 4, 4, 2, brokenPhase);
    EXPECT_DEATH(race.endCycle(11), "NOC_RACE_CHECK");
}

// ---------------------------------------------------- clean-tree matrix

/**
 * Runs one simulation with a passively-attached checker and returns
 * it for inspection. The checker accumulates instead of aborting, so
 * a (hypothetical) schedule bug would surface as a readable finding
 * list rather than a process exit.
 */
void
expectCleanRun(SimConfig cfg, const std::vector<FaultSpec> &faults,
               int shards, const char *what)
{
    SCOPED_TRACE(what);
    cfg.shards = shards;
    par::RaceChecker race(cfg.meshWidth, cfg.meshHeight);
    Simulator sim(cfg, faults);
    sim.network().setRaceChecker(&race);
    const SimResult r = sim.run();
    sim.network().setRaceChecker(nullptr);
    EXPECT_EQ(race.findingsTotal(), 0u)
        << (race.findings().empty() ? std::string("(capped)")
                                    : race.findings().front());
    EXPECT_GT(race.recordsLogged(), 0u)
        << "the run loop's race-check hooks logged nothing";
    // Exactly one superstep validation per simulated cycle.
    EXPECT_EQ(race.cyclesChecked(), r.drainCycles);
}

TEST(RaceCheckMatrixTest, CleanTreeOverArchRoutingAndFaultMatrix)
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

    for (RouterArch arch : {RouterArch::Generic, RouterArch::PathSensitive,
                            RouterArch::Roco}) {
        for (RoutingKind routing :
             {RoutingKind::XY, RoutingKind::XYYX, RoutingKind::Adaptive}) {
            SimConfig cfg;
            cfg.arch = arch;
            cfg.routing = routing;
            cfg.traffic = TrafficKind::Uniform;
            cfg.injectionRate = 0.2;
            cfg.meshWidth = 6;
            cfg.meshHeight = 6;
            cfg.warmupPackets = 10;
            cfg.measurePackets = 60;
            cfg.maxCycles = 3000;
            cfg.seed = 0xBEEF;
            for (const auto &row : faultRows) {
                std::vector<FaultSpec> faults =
                    row.faults ? *row.faults : std::vector<FaultSpec>{};
                char what[96];
                std::snprintf(what, sizeof what, "%s/%s/%s",
                              toString(arch), toString(routing),
                              row.label);
                expectCleanRun(cfg, faults, 1, what);
                expectCleanRun(cfg, faults, 4, what);
            }
        }
    }
}

TEST(RaceCheckMatrixTest, EnvCreatedCheckerCoversPlainRuns)
{
    // No checker attached: with NOC_RACE_CHECK=1, Simulator::run
    // creates its own fail-fast checker and asserts zero findings.
    // Reaching the end of run() without a fatal() IS the assertion.
    ASSERT_EQ(setenv("NOC_RACE_CHECK", "1", 1), 0);
    SimConfig cfg;
    cfg.arch = RouterArch::Roco;
    cfg.routing = RoutingKind::XY;
    cfg.traffic = TrafficKind::Uniform;
    cfg.injectionRate = 0.15;
    cfg.meshWidth = 5;
    cfg.meshHeight = 5;
    cfg.warmupPackets = 10;
    cfg.measurePackets = 40;
    cfg.maxCycles = 3000;
    cfg.shards = 2;
    Simulator sim(cfg);
    SimResult r = sim.run();
    ASSERT_EQ(unsetenv("NOC_RACE_CHECK"), 0);
    EXPECT_GT(r.delivered, 0u);
}

} // namespace
} // namespace noc
