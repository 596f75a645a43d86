/** @file Unit tests for the arbiters. */
#include <gtest/gtest.h>

#include <map>

#include "router/arbiter.h"

namespace noc {
namespace {

TEST(RoundRobinTest, EmptyMaskGrantsNothing)
{
    RoundRobinArbiter a(4);
    EXPECT_EQ(a.arbitrate(0), -1);
    EXPECT_EQ(a.peek(0), -1);
}

TEST(RoundRobinTest, SingleRequesterAlwaysWins)
{
    RoundRobinArbiter a(8);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(a.arbitrate(1ull << 5), 5);
}

TEST(RoundRobinTest, RotatesUnderPersistentLoad)
{
    RoundRobinArbiter a(3);
    std::uint64_t all = 0b111;
    int first = a.arbitrate(all);
    int second = a.arbitrate(all);
    int third = a.arbitrate(all);
    int fourth = a.arbitrate(all);
    EXPECT_NE(first, second);
    EXPECT_NE(second, third);
    EXPECT_NE(third, first);
    EXPECT_EQ(fourth, first); // full rotation

    // The pointer wraps at both ends of the size range.
    RoundRobinArbiter one(1);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(one.arbitrate(1), 0);
    RoundRobinArbiter wide(64);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(wide.arbitrate(~0ull), i);
    EXPECT_EQ(wide.arbitrate(~0ull), 0); // past 63 back to 0
    const std::uint64_t ends = (1ull << 63) | 1ull;
    EXPECT_EQ(wide.arbitrate(ends), 63);
    EXPECT_EQ(wide.arbitrate(ends), 0);
    EXPECT_EQ(wide.arbitrate(ends), 63);
}

TEST(RoundRobinTest, FairShareOverManyCycles)
{
    RoundRobinArbiter a(4);
    std::map<int, int> wins;
    for (int i = 0; i < 4000; ++i)
        ++wins[a.arbitrate(0b1111)];
    for (auto &[req, w] : wins)
        EXPECT_EQ(w, 1000) << req;
}

TEST(RoundRobinTest, PeekDoesNotAdvance)
{
    RoundRobinArbiter a(4);
    int p1 = a.peek(0b1111);
    int p2 = a.peek(0b1111);
    EXPECT_EQ(p1, p2);
    EXPECT_EQ(a.arbitrate(0b1111), p1);
}

TEST(RoundRobinTest, SkipsNonRequesters)
{
    RoundRobinArbiter a(4);
    EXPECT_EQ(a.arbitrate(0b0001), 0); // pointer now at 1
    EXPECT_EQ(a.arbitrate(0b1000), 3); // 1, 2 not requesting
}

TEST(MatrixArbiterTest, GrantsLeastRecentlyServed)
{
    MatrixArbiter a(3);
    EXPECT_EQ(a.arbitrate(0b111), 0);
    // 0 just won: now lowest priority.
    EXPECT_EQ(a.arbitrate(0b111), 1);
    EXPECT_EQ(a.arbitrate(0b111), 2);
    EXPECT_EQ(a.arbitrate(0b111), 0);
    // Serve only 2 twice; 2 drops to the bottom both times.
    EXPECT_EQ(a.arbitrate(0b100), 2);
    EXPECT_EQ(a.arbitrate(0b100), 2);
    EXPECT_EQ(a.arbitrate(0b110), 1);
}

TEST(MatrixArbiterTest, EmptyMaskGrantsNothing)
{
    MatrixArbiter a(4);
    EXPECT_EQ(a.arbitrate(0), -1);
}

TEST(MatrixArbiterTest, FairUnderPersistentLoad)
{
    MatrixArbiter a(5);
    std::map<int, int> wins;
    for (int i = 0; i < 5000; ++i)
        ++wins[a.arbitrate(0b11111)];
    for (auto &[req, w] : wins)
        EXPECT_EQ(w, 1000) << req;
}

} // namespace
} // namespace noc
