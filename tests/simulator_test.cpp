/** @file Tests for the simulation driver. */
#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "result_print.h"
#include "sim/simulator.h"

namespace noc {
namespace {

SimConfig
smallRun(RouterArch arch)
{
    SimConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.arch = arch;
    cfg.injectionRate = 0.1;
    cfg.warmupPackets = 100;
    cfg.measurePackets = 500;
    cfg.maxCycles = 100000;
    return cfg;
}

TEST(SimulatorTest, FaultFreeRunCompletesEverything)
{
    for (RouterArch arch : {RouterArch::Generic,
                            RouterArch::PathSensitive,
                            RouterArch::Roco}) {
        Simulator sim(smallRun(arch));
        SimResult r = sim.run();
        EXPECT_FALSE(r.timedOut) << toString(arch);
        EXPECT_DOUBLE_EQ(r.completion, 1.0) << toString(arch);
        EXPECT_GE(r.injected, 500u) << toString(arch);
        EXPECT_EQ(r.delivered, r.injected) << toString(arch);
        EXPECT_GT(r.avgLatency, 5.0) << toString(arch);
        EXPECT_LT(r.avgLatency, 60.0) << toString(arch);
        EXPECT_GT(r.energyPerPacketNj, 0.0) << toString(arch);
        EXPECT_GT(r.throughputFlits, 0.0) << toString(arch);
        EXPECT_DOUBLE_EQ(r.pef, r.edp) << toString(arch); // fault-free
    }
}

TEST(SimulatorTest, DeterministicAcrossRuns)
{
    SimConfig cfg = smallRun(RouterArch::Roco);
    SimResult a = Simulator(cfg).run();
    SimResult b = Simulator(cfg).run();
    EXPECT_EQ(a, b);
}

TEST(SimulatorTest, SeedChangesTheRun)
{
    SimConfig cfg = smallRun(RouterArch::Roco);
    SimResult a = Simulator(cfg).run();
    cfg.seed = 999;
    SimResult b = Simulator(cfg).run();
    EXPECT_NE(a.avgLatency, b.avgLatency);
}

TEST(SimulatorTest, LatencyPercentilesAreOrdered)
{
    SimConfig cfg = smallRun(RouterArch::Roco);
    cfg.injectionRate = 0.25;
    SimResult r = Simulator(cfg).run();
    EXPECT_GT(r.p50Latency, 0.0);
    EXPECT_LE(r.p50Latency, r.p99Latency);
    EXPECT_LE(r.p99Latency, r.maxLatency + 2.0); // bin width slack
    // The median of a right-skewed latency distribution sits at or
    // below the mean.
    EXPECT_LE(r.p50Latency, r.avgLatency + 2.0);
}

TEST(SimulatorTest, EdpIsLatencyTimesEnergy)
{
    Simulator sim(smallRun(RouterArch::Generic));
    SimResult r = sim.run();
    EXPECT_NEAR(r.edp, r.avgLatency * r.energyPerPacketNj, 1e-9);
}

TEST(SimulatorTest, MeasuredWindowExcludesWarmup)
{
    SimConfig cfg = smallRun(RouterArch::Roco);
    Simulator sim(cfg);
    SimResult r = sim.run();
    std::uint64_t total = sim.network().totalInjected();
    EXPECT_GT(total, r.injected); // warm-up packets exist
}

TEST(SimulatorTest, MaxCyclesBoundsTheRun)
{
    SimConfig cfg = smallRun(RouterArch::Generic);
    cfg.injectionRate = 0.9; // far past saturation
    cfg.maxCycles = 2000;
    cfg.measurePackets = 100000; // cannot finish
    Simulator sim(cfg);
    SimResult r = sim.run();
    EXPECT_TRUE(r.timedOut);
    EXPECT_LE(r.cycles, 2000u);
}

TEST(SimulatorTest, SelfSimilarTrafficRuns)
{
    SimConfig cfg = smallRun(RouterArch::Roco);
    cfg.traffic = TrafficKind::SelfSimilar;
    SimResult r = Simulator(cfg).run();
    EXPECT_DOUBLE_EQ(r.completion, 1.0);
}

TEST(SimulatorTest, TransposeTrafficRuns)
{
    SimConfig cfg = smallRun(RouterArch::Roco);
    cfg.traffic = TrafficKind::Transpose;
    SimResult r = Simulator(cfg).run();
    EXPECT_DOUBLE_EQ(r.completion, 1.0);
}

TEST(SimulatorTest, ContentionProbesPopulatedUnderLoad)
{
    SimConfig cfg = smallRun(RouterArch::Generic);
    cfg.meshWidth = 8;
    cfg.meshHeight = 8;
    cfg.injectionRate = 0.3;
    cfg.measurePackets = 2000;
    SimResult r = Simulator(cfg).run();
    EXPECT_GT(r.rowContention, 0.0);
    EXPECT_GT(r.colContention, 0.0);
    EXPECT_LT(r.rowContention, 1.0);
}

// --------------------------------------------------- idle-skip equivalence

/** Full result + ledger + engine counters of one run. */
struct SkipObservation {
    SimResult r;
    FlitLedger ledger;
    std::uint64_t stepsExecuted = 0;
    std::uint64_t stepsScheduled = 0;
    Cycle cyclesSkipped = 0;
};

SkipObservation
observeSkipRun(SimConfig cfg, const std::vector<FaultSpec> &faults,
               bool idleSkip)
{
    cfg.idleSkip = idleSkip;
    Simulator sim(cfg, faults);
    SkipObservation out;
    out.r = sim.run();
    out.ledger = sim.network().ledger();
    out.stepsExecuted = sim.network().routerStepsExecuted();
    out.stepsScheduled = sim.network().routerStepsScheduled();
    out.cyclesSkipped = sim.network().cyclesSkipped();
    return out;
}

void
expectSkipIdentical(const SkipObservation &on, const SkipObservation &off,
                    const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(on.r, off.r);
    EXPECT_EQ(on.ledger, off.ledger);
}

SimConfig
skipMatrixConfig(RouterArch arch, RoutingKind routing)
{
    SimConfig cfg;
    cfg.arch = arch;
    cfg.routing = routing;
    cfg.meshWidth = 5;
    cfg.meshHeight = 5;
    cfg.injectionRate = 0.15;
    cfg.warmupPackets = 20;
    cfg.measurePackets = 120;
    // Faulted minimal routings never drain; the inactivity window must
    // cut the run at the same cycle with and without idle-skip.
    cfg.maxCycles = 6000;
    cfg.seed = 0xFACE;
    return cfg;
}

/**
 * Idle-skip is provably a no-op per skipped step (DESIGN 12): the
 * on/off runs must match in every result field and ledger counter for
 * every architecture x routing, with and without Table-3 faults.  The
 * executed-step counter must actually drop when skipping, so the fast
 * path cannot silently disable itself and vacuously pass.
 */
TEST(SimulatorTest, IdleSkipEquivalenceMatrix)
{
    MeshTopology topo(5, 5);
    std::vector<FaultSpec> critical = placeRandomFaults(
        topo, FaultClass::RouterCentricCritical, 2, 3, 7);
    std::vector<FaultSpec> noncritical = placeRandomFaults(
        topo, FaultClass::MessageCentricNonCritical, 2, 3, 9);

    const struct {
        const char *label;
        const std::vector<FaultSpec> *faults;
    } faultRows[] = {{"fault-free", nullptr},
                     {"2-critical", &critical},
                     {"2-noncritical", &noncritical}};

    bool skippedSomewhere = false;
    for (RouterArch arch : {RouterArch::Generic, RouterArch::PathSensitive,
                            RouterArch::Roco}) {
        for (RoutingKind routing :
             {RoutingKind::XY, RoutingKind::XYYX, RoutingKind::Adaptive}) {
            for (const auto &row : faultRows) {
                std::vector<FaultSpec> faults =
                    row.faults ? *row.faults : std::vector<FaultSpec>{};
                SimConfig cfg = skipMatrixConfig(arch, routing);
                SkipObservation on = observeSkipRun(cfg, faults, true);
                SkipObservation off = observeSkipRun(cfg, faults, false);
                char what[96];
                std::snprintf(what, sizeof what, "%s/%s/%s",
                              toString(arch), toString(routing),
                              row.label);
                expectSkipIdentical(on, off, what);
                // Off executes every scheduled step; on may skip.
                EXPECT_EQ(off.stepsExecuted, off.stepsScheduled) << what;
                EXPECT_LE(on.stepsExecuted, on.stepsScheduled) << what;
                if (on.stepsExecuted < on.stepsScheduled)
                    skippedSomewhere = true;
            }
        }
    }
    EXPECT_TRUE(skippedSomewhere)
        << "idle-skip never skipped a step anywhere in the matrix";
}

/**
 * A run that drains on its last allowed cycle was stopped by the drain,
 * not by the cycle cap: timedOut stays false and no statistic moves, at
 * one shard and sharded. One cycle less is a timeout.
 */
TEST(SimulatorTest, DrainOnTheLastAllowedCycleIsNotATimeout)
{
    for (int shards : {1, 2}) {
        SimConfig cfg = smallRun(RouterArch::Roco);
        cfg.warmupPackets = 10;
        cfg.measurePackets = 100;
        cfg.shards = shards;
        SkipObservation free = observeSkipRun(cfg, {}, true);
        ASSERT_FALSE(free.r.timedOut);
        ASSERT_EQ(free.r.delivered, free.r.injected);

        char what[32];
        std::snprintf(what, sizeof what, "%d shards", shards);
        cfg.maxCycles = free.r.drainCycles;
        SkipObservation last = observeSkipRun(cfg, {}, true);
        EXPECT_FALSE(last.r.timedOut) << what;
        EXPECT_EQ(last.r.drainCycles, free.r.drainCycles) << what;
        expectSkipIdentical(free, last, what);

        cfg.maxCycles = free.r.drainCycles - 1;
        EXPECT_TRUE(observeSkipRun(cfg, {}, true).r.timedOut) << what;
    }
}

/** The sharded engine honours idle-skip off: shards x skip matrix. */
TEST(SimulatorTest, IdleSkipEquivalenceAcrossShards)
{
    MeshTopology topo(6, 6);
    std::vector<FaultSpec> critical = placeRandomFaults(
        topo, FaultClass::RouterCentricCritical, 2, 3, 11);

    SimConfig cfg = skipMatrixConfig(RouterArch::Roco,
                                     RoutingKind::Adaptive);
    cfg.meshWidth = 6;
    cfg.meshHeight = 6;
    SkipObservation ref = observeSkipRun(cfg, critical, true);
    for (int shards : {2, 4}) {
        for (bool skip : {true, false}) {
            SimConfig c = cfg;
            c.shards = shards;
            char what[64];
            std::snprintf(what, sizeof what, "%d shards, skip %s", shards,
                          skip ? "on" : "off");
            SkipObservation got = observeSkipRun(c, critical, skip);
            expectSkipIdentical(ref, got, what);
            // The skip decisions themselves are part of the contract:
            // the sharded engine must skip exactly the serial steps.
            EXPECT_EQ(got.stepsScheduled, ref.stepsScheduled) << what;
            if (skip)
                EXPECT_EQ(got.stepsExecuted, ref.stepsExecuted) << what;
            else
                EXPECT_EQ(got.stepsExecuted, got.stepsScheduled) << what;
        }
    }
}

/**
 * Closed-loop rows: under two critical faults a Generic or PS network
 * strands requests in its dead nodes' source queues, so the run ends
 * in the frozen idle window, which the run loop fast-forwards from one
 * NIC deadline to the next. The service latency outlasts the drain of
 * the last requests, so the network freezes with replies pending and
 * the first reply fire ends a jump; the MSHR timeout, short against
 * the idle window, puts expiries all through the tail.
 * Skip on and off, at 1, 2 and 4 shards, must agree on the result,
 * the ledger and the scheduled steps, and each skip setting on the
 * executed steps; with skip on, whole cycles must have been skipped.
 */
TEST(SimulatorTest, IdleSkipClosedLoopFrozenTail)
{
    MeshTopology topo(8, 8);
    const std::vector<FaultSpec> critical = placeRandomFaults(
        topo, FaultClass::RouterCentricCritical, 2, 3, 13);
    for (RouterArch arch :
         {RouterArch::Generic, RouterArch::PathSensitive}) {
        SimConfig cfg = skipMatrixConfig(arch, RoutingKind::XYYX);
        cfg.meshWidth = 8;
        cfg.meshHeight = 8;
        cfg.injectionRate = 0.1;
        cfg.warmupPackets = 50;
        cfg.measurePackets = 400;
        cfg.maxCycles = 50000;
        cfg.svc.enabled = true;
        cfg.svc.serviceLatency = 600;
        cfg.svc.mshrTimeout = 800;
        cfg.shards = 1;
        const SkipObservation ref = observeSkipRun(cfg, critical, true);
        EXPECT_GT(ref.r.svcTimeouts, 0u) << toString(arch);
        EXPECT_GT(ref.cyclesSkipped, 0u)
            << toString(arch) << ": no whole cycle was skipped";
        for (bool skip : {true, false}) {
            for (int shards : {1, 2, 4}) {
                if (skip && shards == 1)
                    continue; // the reference itself
                SimConfig c = cfg;
                c.shards = shards;
                char what[64];
                std::snprintf(what, sizeof what, "%s, %d shards, skip %s",
                              toString(arch), shards, skip ? "on" : "off");
                const SkipObservation got =
                    observeSkipRun(c, critical, skip);
                expectSkipIdentical(ref, got, what);
                EXPECT_EQ(got.stepsScheduled, ref.stepsScheduled) << what;
                if (skip) {
                    EXPECT_EQ(got.stepsExecuted, ref.stepsExecuted) << what;
                    EXPECT_EQ(got.cyclesSkipped, ref.cyclesSkipped) << what;
                } else {
                    EXPECT_EQ(got.stepsExecuted, got.stepsScheduled)
                        << what;
                    EXPECT_EQ(got.cyclesSkipped, 0u) << what;
                }
            }
        }
    }
}

} // namespace
} // namespace noc
