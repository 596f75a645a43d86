/** @file Unit tests for common/types.h, common/config.h and common/flit.h. */
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "check/deadlock.h"
#include "check/invariant.h"
#include "common/config.h"
#include "common/flit.h"
#include "common/types.h"
#include "obs/recorder.h"
#include "par/race_check.h"
#include "sim/network.h"

namespace noc {
namespace {

TEST(DirectionTest, OppositePairsUp)
{
    EXPECT_EQ(opposite(Direction::North), Direction::South);
    EXPECT_EQ(opposite(Direction::South), Direction::North);
    EXPECT_EQ(opposite(Direction::East), Direction::West);
    EXPECT_EQ(opposite(Direction::West), Direction::East);
}

TEST(DirectionTest, OppositeIsInvolution)
{
    for (int i = 0; i < kNumCardinal; ++i) {
        Direction d = static_cast<Direction>(i);
        EXPECT_EQ(opposite(opposite(d)), d);
    }
}

TEST(DirectionTest, RowColumnPartitionCardinals)
{
    int rows = 0;
    int cols = 0;
    for (int i = 0; i < kNumCardinal; ++i) {
        Direction d = static_cast<Direction>(i);
        EXPECT_TRUE(isCardinal(d));
        EXPECT_NE(isRow(d), isColumn(d));
        rows += isRow(d) ? 1 : 0;
        cols += isColumn(d) ? 1 : 0;
    }
    EXPECT_EQ(rows, 2);
    EXPECT_EQ(cols, 2);
    EXPECT_FALSE(isCardinal(Direction::Local));
    EXPECT_FALSE(isCardinal(Direction::Invalid));
}

TEST(DirectionTest, ModuleOwnership)
{
    EXPECT_EQ(moduleOf(Direction::East), Module::Row);
    EXPECT_EQ(moduleOf(Direction::West), Module::Row);
    EXPECT_EQ(moduleOf(Direction::North), Module::Column);
    EXPECT_EQ(moduleOf(Direction::South), Module::Column);
}

TEST(DirectionTest, NamesAreDistinct)
{
    EXPECT_STRNE(toString(Direction::North), toString(Direction::South));
    EXPECT_STREQ(toString(Direction::Local), "Local");
    EXPECT_STREQ(toString(RouterArch::Roco), "RoCo");
    EXPECT_STREQ(toString(RoutingKind::XYYX), "XY-YX");
    EXPECT_STREQ(toString(Module::Row), "Row");
}

TEST(CoordTest, ManhattanDistance)
{
    EXPECT_EQ(manhattan({0, 0}, {0, 0}), 0);
    EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
    EXPECT_EQ(manhattan({3, 4}, {0, 0}), 7);
    EXPECT_EQ(manhattan({-2, 5}, {2, -5}), 14);
}

TEST(FlitTest, HeadTailPredicates)
{
    EXPECT_TRUE(isHead(FlitType::Head));
    EXPECT_TRUE(isHead(FlitType::HeadTail));
    EXPECT_FALSE(isHead(FlitType::Body));
    EXPECT_FALSE(isHead(FlitType::Tail));
    EXPECT_TRUE(isTail(FlitType::Tail));
    EXPECT_TRUE(isTail(FlitType::HeadTail));
    EXPECT_FALSE(isTail(FlitType::Head));
    EXPECT_FALSE(isTail(FlitType::Body));
}

TEST(ConfigTest, DefaultsMatchThePaper)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.meshWidth, 8);
    EXPECT_EQ(cfg.meshHeight, 8);
    EXPECT_EQ(cfg.flitsPerPacket, 4);
    EXPECT_EQ(cfg.flitBits, 128);
    EXPECT_EQ(cfg.vcsPerPort, 3);
    cfg.validate(); // must not die
}

TEST(ConfigTest, SixtyFlitsOfBufferingForEveryArchitecture)
{
    // Section 5.4: 3 VCs x 4-deep x 5 ports = 3 VCs x 5-deep x 4 sets.
    SimConfig cfg;
    for (RouterArch a : {RouterArch::Generic, RouterArch::PathSensitive,
                         RouterArch::Roco}) {
        cfg.arch = a;
        EXPECT_EQ(cfg.totalBufferFlits(), 60) << toString(a);
    }
}

TEST(ConfigTest, BufferDepthPerArch)
{
    SimConfig cfg;
    cfg.arch = RouterArch::Generic;
    EXPECT_EQ(cfg.bufferDepth(), 4);
    cfg.arch = RouterArch::Roco;
    EXPECT_EQ(cfg.bufferDepth(), 5);
    cfg.arch = RouterArch::PathSensitive;
    EXPECT_EQ(cfg.bufferDepth(), 5);
}

TEST(ConfigTest, CommandLineSpellingsReachEveryValue)
{
    EXPECT_EQ(parseArch("generic"), RouterArch::Generic);
    EXPECT_EQ(parseArch("ps"), RouterArch::PathSensitive);
    EXPECT_EQ(parseArch("pathsensitive"), RouterArch::PathSensitive);
    EXPECT_EQ(parseArch("roco"), RouterArch::Roco);
    EXPECT_EQ(parseRouting("xy"), RoutingKind::XY);
    EXPECT_EQ(parseRouting("xyyx"), RoutingKind::XYYX);
    EXPECT_EQ(parseRouting("adaptive"), RoutingKind::Adaptive);
    // In enum order, so spelling i names TrafficKind i.
    const char *traffics[] = {"uniform", "transpose", "bitcomp", "hotspot",
                              "tornado", "neighbor", "selfsimilar", "mpeg",
                              "bitreverse", "shuffle", "trace"};
    static_assert(std::size(traffics) ==
                  static_cast<std::size_t>(TrafficKind::Trace) + 1);
    for (std::size_t i = 0; i < std::size(traffics); ++i)
        EXPECT_EQ(parseTraffic(traffics[i]), static_cast<TrafficKind>(i))
            << traffics[i];

    // Exact and case-sensitive: display names and padding are rejected.
    for (const char *bad : {"", "XY", "roco ", "quantum"}) {
        EXPECT_FALSE(parseArch(bad).has_value()) << bad;
        EXPECT_FALSE(parseRouting(bad).has_value()) << bad;
        EXPECT_FALSE(parseTraffic(bad).has_value()) << bad;
    }
}

TEST(ConfigTest, ParseNumberTakesOnlyWholeStrings)
{
    EXPECT_EQ(parseNumber<int>("4"), 4);
    EXPECT_EQ(parseNumber<int>("-3"), -3);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseNumber<double>("0.25"), 0.25);
    for (const char *bad : {"", "4x", " 4", "+4", "two", "99999999999"})
        EXPECT_FALSE(parseNumber<int>(bad).has_value()) << bad;
    for (const char *bad : {"-5", "18446744073709551616"})
        EXPECT_FALSE(parseNumber<std::uint64_t>(bad).has_value()) << bad;
    for (const char *bad : {"abc", "0.1,", "nan", "inf", "1e999"})
        EXPECT_FALSE(parseNumber<double>(bad).has_value()) << bad;
}

/** One on/off env switch and a call that reads it. */
struct EnvSwitch {
    const char *name;
    void (*read)();
};

// Names the parameter in test listings (stable across runs).
void
PrintTo(const EnvSwitch &s, std::ostream *os)
{
    *os << s.name;
}

const EnvSwitch kEnvSwitches[] = {
    {"NOC_SKIP_CHECK", [] { check::upfrontChecksEnabled(); }},
    {"NOC_INVARIANT", [] { check::detail::readInvariantsEnv(); }},
    {"NOC_IDLE_SKIP", [] { Network net(SimConfig{}); }},
    {"NOC_TRACE", [] { obs::Recorder::fromEnv(SimConfig{}); }},
    {"NOC_RACE_CHECK", [] { par::RaceChecker::enabledFromEnv(); }},
};

class EnvSwitchDeathTest : public testing::TestWithParam<EnvSwitch>
{
};

// An on/off switch is 0 or 1. Anything else is fatal and named, so a
// typo such as NOC_SKIP_CHECK=false cannot turn a gate off (or on).
TEST_P(EnvSwitchDeathTest, TakesOnlyZeroOrOne)
{
    const EnvSwitch &s = GetParam();
    for (const char *bad : {"false", "", "2"}) {
        ASSERT_EQ(setenv(s.name, bad, 1), 0);
        EXPECT_EXIT(s.read(), testing::ExitedWithCode(1),
                    std::string(s.name) + "='" + bad +
                        "' is not a whole number in \\[0, 1\\]")
            << bad;
    }
    ASSERT_EQ(unsetenv(s.name), 0);
}

INSTANTIATE_TEST_SUITE_P(
    OnOff, EnvSwitchDeathTest, testing::ValuesIn(kEnvSwitches),
    [](const testing::TestParamInfo<EnvSwitch> &info) {
        return std::string(info.param.name);
    });

TEST(ConfigValidationDeathTest, RejectsBadMesh)
{
    SimConfig cfg;
    cfg.meshWidth = 1;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "mesh");
}

TEST(ConfigValidationDeathTest, RejectsBadRate)
{
    SimConfig cfg;
    cfg.injectionRate = 1.5;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "injectionRate");
}

TEST(ConfigValidationDeathTest, RejectsTooFewVcsForModularRouters)
{
    SimConfig cfg;
    cfg.arch = RouterArch::Roco;
    cfg.vcsPerPort = 2;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "VCs");
}

TEST(ConfigValidationDeathTest, RejectsOutOfRangeHopDelay)
{
    // A link of delay L keeps bit_ceil(L + 1) arrival slots in one
    // mask byte, so 7 is the longest; 0 would deliver in-cycle.
    for (int bad : {0, kMaxLinkDelay + 1}) {
        SimConfig cfg;
        cfg.hopDelay = bad;
        EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                    "hopDelay out of range")
            << bad;
    }
    SimConfig ok;
    ok.hopDelay = kMaxLinkDelay;
    ok.validate();
}

TEST(ConfigValidationDeathTest, RejectsOutOfRangeCreditDelay)
{
    for (int bad : {0, kMaxLinkDelay + 1}) {
        SimConfig cfg;
        cfg.creditDelay = bad;
        EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                    "creditDelay out of range")
            << bad;
    }
    SimConfig ok;
    ok.creditDelay = kMaxLinkDelay;
    ok.validate();
}

TEST(ConfigValidationDeathTest, RejectsPacketBudgetOverflow)
{
    // The run generates warmupPackets + measurePackets; a wrapped sum
    // would stop generation before measurement opens.
    SimConfig cfg;
    cfg.warmupPackets = 20;
    cfg.measurePackets = std::numeric_limits<std::uint64_t>::max() - 4;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "overflows");
    cfg.warmupPackets = 4; // the sum is exactly the maximum: it fits
    cfg.validate();
}

} // namespace
} // namespace noc
