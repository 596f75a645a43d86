/**
 * @file
 * Validates the RoCo VC organisation against the paper's Table 1 and
 * the guided-flit-queuing classification rules.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/slot_rules.h"

namespace noc::check {
namespace {

using enum VcClass;

TEST(Table1Test, AdaptiveRow)
{
    RocoVcConfig c = RocoVcConfig::forRouting(RoutingKind::Adaptive);
    // Row-Module: Port 1 {dx, tyx, Injxy}, Port 2 {dx, dx, tyx}.
    EXPECT_EQ(c.at(Module::Row, 0, 0), Dx);
    EXPECT_EQ(c.at(Module::Row, 0, 1), Tyx);
    EXPECT_EQ(c.at(Module::Row, 0, 2), InjXy);
    EXPECT_EQ(c.at(Module::Row, 1, 0), Dx);
    EXPECT_EQ(c.at(Module::Row, 1, 1), Dx);
    EXPECT_EQ(c.at(Module::Row, 1, 2), Tyx);
    // Column-Module: Port 1 {dy, txy, Injyx}, Port 2 {dy, txy, txy}.
    EXPECT_EQ(c.at(Module::Column, 0, 0), Dy);
    EXPECT_EQ(c.at(Module::Column, 0, 1), Txy);
    EXPECT_EQ(c.at(Module::Column, 0, 2), InjYx);
    EXPECT_EQ(c.at(Module::Column, 1, 0), Dy);
    EXPECT_EQ(c.at(Module::Column, 1, 1), Txy);
    EXPECT_EQ(c.at(Module::Column, 1, 2), Txy);
}

TEST(Table1Test, XyYxRow)
{
    RocoVcConfig c = RocoVcConfig::forRouting(RoutingKind::XYYX);
    EXPECT_EQ(c.countClass(Module::Row, 0, Dx), 1);
    EXPECT_EQ(c.countClass(Module::Row, 0, Tyx), 1);
    EXPECT_EQ(c.countClass(Module::Row, 0, InjXy), 1);
    EXPECT_EQ(c.countClass(Module::Row, 1, Dx), 2);
    EXPECT_EQ(c.countClass(Module::Row, 1, Tyx), 1);
    EXPECT_EQ(c.countClass(Module::Column, 0, Dy), 1);
    EXPECT_EQ(c.countClass(Module::Column, 0, Txy), 1);
    EXPECT_EQ(c.countClass(Module::Column, 0, InjYx), 1);
    EXPECT_EQ(c.countClass(Module::Column, 1, Dy), 2);
    EXPECT_EQ(c.countClass(Module::Column, 1, Txy), 1);
}

TEST(Table1Test, XyRow)
{
    RocoVcConfig c = RocoVcConfig::forRouting(RoutingKind::XY);
    // XY never turns Y->X: no tyx anywhere; both row ports get the
    // heavily used Injxy.
    for (int p = 0; p < kPortsPerModule; ++p) {
        EXPECT_EQ(c.countClass(Module::Row, p, Dx), 2);
        EXPECT_EQ(c.countClass(Module::Row, p, InjXy), 1);
        EXPECT_EQ(c.countClass(Module::Row, p, Tyx), 0);
        EXPECT_EQ(c.countClass(Module::Column, p, Tyx), 0);
    }
    EXPECT_EQ(c.countClass(Module::Column, 0, Dy), 1);
    EXPECT_EQ(c.countClass(Module::Column, 0, Txy), 1);
    EXPECT_EQ(c.countClass(Module::Column, 0, InjYx), 1);
    EXPECT_EQ(c.countClass(Module::Column, 1, Dy), 2);
    EXPECT_EQ(c.countClass(Module::Column, 1, Txy), 1);
}

TEST(Table1Test, TwelveVcsInFourPathSetsAlways)
{
    for (RoutingKind k :
         {RoutingKind::XY, RoutingKind::XYYX, RoutingKind::Adaptive}) {
        RocoVcConfig c = RocoVcConfig::forRouting(k);
        int total = 0;
        for (int m = 0; m < 2; ++m) {
            for (int p = 0; p < kPortsPerModule; ++p) {
                for (VcClass cls : {Dx, Dy, Txy, Tyx, InjXy, InjYx}) {
                    total +=
                        c.countClass(static_cast<Module>(m), p, cls);
                }
            }
        }
        EXPECT_EQ(total, 12) << toString(k);
    }
}

TEST(Table1Test, ModulesHoldOnlyTheirDimensionClasses)
{
    // Row module never holds dy/txy/Injyx; column never dx/tyx/Injxy.
    for (RoutingKind k :
         {RoutingKind::XY, RoutingKind::XYYX, RoutingKind::Adaptive}) {
        RocoVcConfig c = RocoVcConfig::forRouting(k);
        for (int p = 0; p < kPortsPerModule; ++p) {
            EXPECT_EQ(c.countClass(Module::Row, p, Dy), 0);
            EXPECT_EQ(c.countClass(Module::Row, p, Txy), 0);
            EXPECT_EQ(c.countClass(Module::Row, p, InjYx), 0);
            EXPECT_EQ(c.countClass(Module::Column, p, Dx), 0);
            EXPECT_EQ(c.countClass(Module::Column, p, Tyx), 0);
            EXPECT_EQ(c.countClass(Module::Column, p, InjXy), 0);
        }
    }
}

TEST(ClassifyTest, ContinuingVsTurning)
{
    EXPECT_EQ(classifyFlit(Direction::West, Direction::East), Dx);
    EXPECT_EQ(classifyFlit(Direction::East, Direction::West), Dx);
    EXPECT_EQ(classifyFlit(Direction::West, Direction::North), Txy);
    EXPECT_EQ(classifyFlit(Direction::East, Direction::South), Txy);
    EXPECT_EQ(classifyFlit(Direction::South, Direction::North), Dy);
    EXPECT_EQ(classifyFlit(Direction::North, Direction::South), Dy);
    EXPECT_EQ(classifyFlit(Direction::South, Direction::East), Tyx);
    EXPECT_EQ(classifyFlit(Direction::North, Direction::West), Tyx);
}

TEST(ClassifyTest, InjectionByFirstDimension)
{
    EXPECT_EQ(classifyFlit(Direction::Local, Direction::East), InjXy);
    EXPECT_EQ(classifyFlit(Direction::Local, Direction::West), InjXy);
    EXPECT_EQ(classifyFlit(Direction::Local, Direction::North), InjYx);
    EXPECT_EQ(classifyFlit(Direction::Local, Direction::South), InjYx);
}

TEST(ClassifyTest, ModulePlacementFollowsOutputDimension)
{
    EXPECT_EQ(moduleForOutput(Direction::East), Module::Row);
    EXPECT_EQ(moduleForOutput(Direction::North), Module::Column);
}

TEST(PortSideTest, ArrivalSidesMapToPorts)
{
    EXPECT_EQ(portSideFor(Module::Row, Direction::West), 0);
    EXPECT_EQ(portSideFor(Module::Row, Direction::South), 0);
    EXPECT_EQ(portSideFor(Module::Row, Direction::East), 1);
    EXPECT_EQ(portSideFor(Module::Row, Direction::North), 1);
    EXPECT_EQ(portSideFor(Module::Column, Direction::South), 0);
    EXPECT_EQ(portSideFor(Module::Column, Direction::West), 0);
    EXPECT_EQ(portSideFor(Module::Column, Direction::North), 1);
    EXPECT_EQ(portSideFor(Module::Column, Direction::East), 1);
    EXPECT_EQ(portSideFor(Module::Row, Direction::Local), 0);
}

TEST(PortSideTest, OwnerWiringIsConsistentWithPortSides)
{
    // Every buffer has one physical write port, so upstream routers
    // track credits only for the slots their own link writes. Stated
    // on the slot rule the routers allocate through and the prover
    // proves (check::rocoSlotMask, shipped options): every non-injection
    // slot is eligible from exactly one arrival link, on the port
    // portSideFor() gives that link; injection slots from Local only.
    for (RoutingKind kind :
         {RoutingKind::XY, RoutingKind::XYYX, RoutingKind::Adaptive}) {
        const check::RocoCheckOptions o =
            check::RocoCheckOptions::shipped(kind);
        // Every slot a flit arriving on @p arrival may occupy.
        auto eligible = [&](Direction arrival) {
            std::uint64_t mask = 0;
            for (int out = 0; out < kNumCardinal; ++out) {
                for (bool yx : {false, true})
                    mask |= check::rocoSlotMask(
                        o, kind, arrival, static_cast<Direction>(out), yx);
            }
            return mask;
        };
        const std::uint64_t fromLocal = eligible(Direction::Local);
        for (int s = 0; s < check::kRocoSlots; ++s) {
            const Module m = check::rocoSlotModule(s);
            const int port = check::rocoSlotPort(s);
            const VcClass cls = o.table.at(m, port, check::rocoSlotVc(s));
            const bool inj = cls == InjXy || cls == InjYx;
            const std::string name = std::string(toString(kind)) + " " +
                                     check::rocoSlotName(o.table, s);
            int links = 0;
            for (int a = 0; a < kNumCardinal; ++a) {
                const Direction arrival = static_cast<Direction>(a);
                if (!((eligible(arrival) >> s) & 1))
                    continue;
                ++links;
                EXPECT_EQ(portSideFor(m, arrival), port)
                    << name << " from " << toString(arrival);
            }
            EXPECT_EQ(links, inj ? 0 : 1) << name;
            EXPECT_EQ(((fromLocal >> s) & 1) != 0, inj) << name;
        }
    }
}

TEST(ClassifyDeathTest, LocalOutputIsNeverBuffered)
{
    EXPECT_DEATH(classifyFlit(Direction::West, Direction::Local),
                 "early-ejected");
}

} // namespace
} // namespace noc::check
