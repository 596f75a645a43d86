/**
 * @file
 * Liveness model-checker tests: explicit-state exploration of the
 * router micro-model (livelock-freedom, outcome accounting, graceful
 * degradation across the Table 3 fault matrix), real-arbiter bounded
 * wait proofs, and the deliberately broken variants which must be
 * rejected with a rendered counterexample trace.
 */
#include <gtest/gtest.h>

#include "model/arbiter_check.h"
#include "model/explorer.h"
#include "model/liveness.h"

namespace noc::model {
namespace {

constexpr RouterArch kAllArchs[] = {RouterArch::Roco,
                                    RouterArch::Generic,
                                    RouterArch::PathSensitive};
constexpr RoutingKind kAllRoutings[] = {RoutingKind::XY,
                                        RoutingKind::XYYX,
                                        RoutingKind::Adaptive};

TEST(Explorer, HealthyCrossDeliversEverythingOnEveryPair)
{
    for (RouterArch arch : kAllArchs) {
        for (RoutingKind kind : kAllRoutings) {
            for (int dim : {2, 3}) {
                auto matrix = scenarioMatrix(arch, kind, dim, dim);
                ASSERT_FALSE(matrix.empty());
                const Scenario &sc = matrix.front();
                ASSERT_TRUE(sc.faults.empty()) << sc.name;
                ModelResult r = explore(sc);
                EXPECT_TRUE(r.ok) << r.summary() << "\n"
                                  << r.counterexample;
                // Fault-free: no schedule may drop any packet.
                for (std::size_t i = 0; i < sc.packets.size(); ++i)
                    EXPECT_EQ(r.outcomes[i], kOutcomeDelivered)
                        << sc.name << " pkt" << i;
            }
        }
    }
}

TEST(Explorer, FaultScenariosProveDegradationSoundness)
{
    for (RouterArch arch : kAllArchs) {
        for (RoutingKind kind : kAllRoutings) {
            for (int dim : {2, 3}) {
                for (const Scenario &sc :
                     scenarioMatrix(arch, kind, dim, dim)) {
                    if (sc.faults.empty())
                        continue;
                    ModelResult r = explore(sc);
                    EXPECT_TRUE(r.ok) << r.summary() << "\n"
                                      << r.counterexample;
                    EXPECT_GT(r.states, 0u) << sc.name;
                    // Every packet reached a terminal outcome and
                    // obliged packets are never dropped (checked
                    // inside explore(); re-assert the outcome bits
                    // here for the mustDeliver packets).
                    for (std::size_t i = 0; i < sc.packets.size();
                         ++i) {
                        ASSERT_NE(r.outcomes[i], 0) << sc.name;
                        if (sc.packets[i].mustDeliver) {
                            EXPECT_EQ(r.outcomes[i],
                                      kOutcomeDelivered)
                                << sc.name << " pkt" << i;
                        }
                    }
                }
            }
        }
    }
}

TEST(Explorer, NonMinimalMutationYieldsLivelockCounterexample)
{
    ModelResult r =
        explore(brokenModelScenario(Mutation::NonMinimalRouting));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.property.find("progress-measure"), std::string::npos)
        << r.property;
    // The trace must be rendered and concrete: a cycle of moves.
    EXPECT_NE(r.counterexample.find("move"), std::string::npos)
        << r.counterexample;
    EXPECT_NE(r.counterexample.find("reached state"),
              std::string::npos);
}

TEST(Explorer, NoDropMutationStrandsPacketAtFault)
{
    ModelResult r =
        explore(brokenModelScenario(Mutation::NoFaultDrop));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.property.find("stranded"), std::string::npos)
        << r.property;
    EXPECT_FALSE(r.counterexample.empty());
}

TEST(ArbiterCheck, RoundRobinWaitBoundEqualsSize)
{
    for (int size : {2, 3, 4, 5}) {
        ArbiterCheckResult r = checkRoundRobinBoundedWait(size);
        EXPECT_TRUE(r.ok) << r.summary() << "\n" << r.counterexample;
        // With all inputs contending, round-robin serves a requester
        // at most `size` cycles after it raises.
        EXPECT_EQ(r.bound, size);
        EXPECT_EQ(r.states, static_cast<std::size_t>(size) *
                                static_cast<std::size_t>(size));
    }
}

TEST(ArbiterCheck, MirrorAllocatorBoundedUnderPacketBoundaries)
{
    ArbiterCheckResult r = checkMirrorAllocatorBoundedWait();
    EXPECT_TRUE(r.ok) << r.summary() << "\n" << r.counterexample;
    // Four targets, 21 reachable mirrored states each at cap 2; a
    // continuously requesting pair waits at most 3 cycles.
    EXPECT_EQ(r.bound, 3);
    EXPECT_EQ(r.states, 84u);
}

TEST(ArbiterCheck, GreedyTieBreakStarves)
{
    MirrorCheckOptions o;
    o.rotatingTie = false;
    ArbiterCheckResult r = checkMirrorAllocatorBoundedWait(o);
    EXPECT_FALSE(r.ok);
    // The whole schedule: the first state (by id) on a not-granted
    // cycle, entered the same way every run.
    EXPECT_EQ(r.counterexample,
              "  target (port0 -> out1) starves; not-granted cycle:\n"
              "    cycle: adv[- - req] straight=2 crossed=2 -> straight "
              "(tie)\n"
              "    cycle: adv[req - -] straight=2 crossed=2 -> straight "
              "(tie)\n"
              "    cycle: adv[- - req] straight=2 crossed=2 -> straight "
              "(tie)\n");
}

TEST(ArbiterCheck, EndlessPacketsStarve)
{
    MirrorCheckOptions o;
    o.packetBoundaries = false;
    ArbiterCheckResult r = checkMirrorAllocatorBoundedWait(o);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.counterexample,
              "  target (port0 -> out0) starves; not-granted cycle:\n"
              "    cycle: adv[spec req -] straight=2 crossed=3 -> "
              "crossed\n"
              "    cycle: adv[spec req -] straight=2 crossed=3 -> "
              "crossed\n");
}

TEST(Liveness, ScenarioMatrixCoversRocoTable3Reactions)
{
    // The RoCo matrix must exercise every Table 3 reaction class:
    // recycling (RC), dead VC, degraded SA and a dead row/column
    // module; node-death is the generic/PS reaction.
    auto matrix =
        scenarioMatrix(RouterArch::Roco, RoutingKind::XY, 3, 3);
    auto has = [&](const char *needle) {
        for (const Scenario &sc : matrix)
            if (sc.name.find(needle) != std::string::npos)
                return true;
        return false;
    };
    EXPECT_TRUE(has("rc-recycle"));
    EXPECT_TRUE(has("dead-vc"));
    EXPECT_TRUE(has("sa-degraded"));
    EXPECT_TRUE(has("row-module-dead"));
    EXPECT_TRUE(has("col-module-dead"));
}

TEST(Liveness, ValidateConfigLivenessAcceptsShippedConfigs)
{
    for (RouterArch arch : kAllArchs) {
        for (RoutingKind kind : kAllRoutings) {
            SimConfig cfg;
            cfg.arch = arch;
            cfg.routing = kind;
            cfg.meshWidth = 4;
            cfg.meshHeight = 4;
            // Dies on violation; returning is the assertion.
            validateConfigLiveness(cfg);
        }
    }
    SUCCEED();
}

} // namespace
} // namespace noc::model
