/** @file Unit tests for the arrival-slot links (topology/channel.h). */
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <vector>

#include "topology/channel.h"

namespace noc {
namespace {

Flit
makeFlit(std::uint64_t id)
{
    Flit f;
    f.packetId = id;
    return f;
}

/** One flit link: the ring and the receiver's occupancy byte. */
struct TestLink {
    explicit TestLink(int delay) : clock(delay) {}

    void send(std::uint64_t id, Cycle now)
    {
        putFlit(ring, clock, occ, makeFlit(id), now);
    }
    const Flit *due(Cycle now) const
    {
        return dueFlit(ring, clock, occ, now);
    }
    void take(Cycle now) { takeFlit(clock, occ, now); }
    int inFlight() const
    {
        return std::popcount(occ.load(std::memory_order_relaxed));
    }

    SlotClock clock;
    Flit ring[kMaxLinkSlots];
    std::atomic<std::uint8_t> occ{0};
};

/** One credit link: a pair of VC masks per arrival slot. */
struct TestCredits {
    explicit TestCredits(int delay) : clock(delay) {}

    void send(unsigned vc, Cycle now)
    {
        postCredit(masks[clock.sendSlot(now)], vc);
    }
    std::vector<unsigned> take(Cycle now)
    {
        std::vector<unsigned> got;
        takeCredits(masks[clock.dueSlot(now)],
                    [&](unsigned vc) { got.push_back(vc); });
        return got;
    }

    SlotClock clock;
    CreditMask masks[kMaxLinkSlots][2] = {};
};

TEST(ChannelTest, RingIsThePowerOfTwoAboveTheDelay)
{
    const int expect[kMaxLinkDelay + 1] = {1, 2, 4, 4, 8, 8, 8, 8};
    for (int d = 0; d <= kMaxLinkDelay; ++d)
        EXPECT_EQ(SlotClock(d).slots(), expect[d]) << "delay " << d;
}

TEST(ChannelTest, DeliversAfterLatency)
{
    // Exactly at t + L, for every legal delay and across ring wraps.
    for (int L = 1; L <= kMaxLinkDelay; ++L) {
        for (Cycle t : {Cycle{0}, Cycle{10}, Cycle{13}, Cycle{255},
                        Cycle{1} << 40}) {
            SCOPED_TRACE(testing::Message() << "L=" << L << " t=" << t);
            TestLink link(L);
            link.send(7, t);
            for (Cycle c = t; c < t + L; ++c)
                EXPECT_EQ(link.due(c), nullptr) << "early at " << c;
            const Flit *f = link.due(t + L);
            ASSERT_NE(f, nullptr);
            EXPECT_EQ(f->packetId, 7u);
            link.take(t + L);
            EXPECT_EQ(link.inFlight(), 0);
        }
    }
}

TEST(ChannelTest, NeverDeliversSameCycle)
{
    // The property the two-phase engine depends on: the slot a sender
    // writes in cycle t is never the slot due in cycle t, so sender and
    // receiver may be stepped in either order.
    for (int L = 1; L <= kMaxLinkDelay; ++L) {
        SlotClock clock(L);
        for (Cycle t = 0; t < 64; ++t)
            EXPECT_NE(clock.sendSlot(t), clock.dueSlot(t)) << L << "@" << t;
        TestLink link(L);
        link.send(5, 9);
        EXPECT_EQ(link.due(9), nullptr);
    }
}

TEST(ChannelTest, FifoOrderPreserved)
{
    // A flit every cycle, received every cycle, with the receiver
    // stepped before the sender on even cycles and after it on odd
    // ones: each flit arrives once, in order, exactly L cycles later.
    for (int L = 1; L <= kMaxLinkDelay; ++L) {
        SCOPED_TRACE(testing::Message() << "L=" << L);
        TestLink link(L);
        std::uint64_t next = 0, expect = 0;
        auto receive = [&](Cycle t) {
            if (const Flit *f = link.due(t)) {
                EXPECT_EQ(f->packetId, expect++);
                EXPECT_EQ(t, f->packetId + static_cast<Cycle>(L));
                link.take(t);
            }
        };
        for (Cycle t = 0; t < 40; ++t) {
            if (t % 2 == 0)
                receive(t);
            link.send(next++, t);
            if (t % 2 == 1)
                receive(t);
        }
        for (Cycle t = 40; t < 40 + static_cast<Cycle>(L); ++t)
            receive(t);
        EXPECT_EQ(expect, next);
        EXPECT_EQ(link.inFlight(), 0);
    }
}

TEST(ChannelTest, InFlightCount)
{
    // The receiver's occupancy byte is the only in-flight record.
    TestLink link(4);
    EXPECT_EQ(link.inFlight(), 0);
    link.send(1, 0);
    link.send(2, 1);
    EXPECT_EQ(link.inFlight(), 2);
    link.take(4);
    EXPECT_EQ(link.inFlight(), 1);
    link.take(5);
    EXPECT_EQ(link.inFlight(), 0);
}

TEST(ChannelTest, PeekReadyExposesFrontWithoutConsuming)
{
    TestLink link(2);
    link.send(9, 0);
    EXPECT_EQ(link.due(1), nullptr); // still on the wire
    const Flit *f = link.due(2);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->packetId, 9u);
    EXPECT_EQ(link.inFlight(), 1); // peek does not consume
    link.take(2);
    EXPECT_EQ(link.inFlight(), 0);
    EXPECT_EQ(link.due(2), nullptr);
    // Consuming clears the receiver's bit only: the ring keeps its
    // stale copy, because the receiver never writes the link.
    EXPECT_EQ(link.ring[link.clock.dueSlot(2)].packetId, 9u);
}

TEST(ChannelTest, PeekThenDropMatchesReceiveOrder)
{
    // Sends on cycles 0..3 of a 3-cycle link; each cycle the receiver
    // peeks (twice: a peek is stable) and then drops the due flit.
    TestLink link(3);
    std::uint64_t expect = 0;
    for (Cycle t = 0; t < 7; ++t) {
        if (t < 4)
            link.send(t, t);
        const Flit *f = link.due(t);
        if (t < 3) {
            EXPECT_EQ(f, nullptr);
            continue;
        }
        ASSERT_NE(f, nullptr);
        EXPECT_EQ(link.due(t), f);
        EXPECT_EQ(f->packetId, expect++);
        link.take(t);
    }
    EXPECT_EQ(expect, 4u);
    EXPECT_EQ(link.inFlight(), 0);
}

TEST(ChannelTest, DrainDuePopsOnlyDueEntries)
{
    // The receiver drains one slot per cycle, in time order.
    TestCredits link(1);
    link.send(1, 0);
    link.send(2, 0);
    EXPECT_EQ(link.take(1), (std::vector<unsigned>{1, 2}));
    for (Cycle t = 2; t <= 5; ++t)
        EXPECT_TRUE(link.take(t).empty()) << t;
    link.send(3, 5); // due at 6, not before
    EXPECT_EQ(link.take(6), (std::vector<unsigned>{3}));
    EXPECT_TRUE(link.take(7).empty());
}

TEST(ChannelTest, CreditsArriveAfterTheirDelay)
{
    for (int L = 1; L <= kMaxLinkDelay; ++L) {
        TestCredits link(L);
        link.send(4, 3);
        for (Cycle c = 3; c < 3 + static_cast<Cycle>(L); ++c)
            EXPECT_TRUE(link.take(c).empty()) << L << "@" << c;
        EXPECT_EQ(link.take(3 + L), (std::vector<unsigned>{4})) << L;
    }
}

TEST(ChannelTest, TwoCreditsForOneVcInOneCycleArriveAsTwo)
{
    // A drained Drop tail and the next packet's traversal from the
    // same VC return two credits for it in one cycle.
    TestCredits link(1);
    link.send(6, 0);
    link.send(0, 0);
    link.send(6, 0);
    EXPECT_EQ(link.take(1), (std::vector<unsigned>{0, 6, 6}));
    EXPECT_TRUE(link.take(3).empty());
}

TEST(ChannelDeathTest, SendIntoOccupiedSlotDies)
{
    // Two flits in one cycle, or a flit the receiver never consumed
    // when its slot comes round again.
    EXPECT_DEATH(
        {
            TestLink link(3);
            link.send(1, 0);
            link.send(2, 0);
        },
        "flit slot still occupied");
    EXPECT_DEATH(
        {
            TestLink link(3);
            link.send(1, 0);
            link.send(2, static_cast<Cycle>(link.clock.slots()));
        },
        "flit slot still occupied");
}

TEST(ChannelDeathTest, ThirdCreditForOneVcInOneCycleDies)
{
    EXPECT_DEATH(
        {
            TestCredits link(1);
            link.send(2, 0);
            link.send(2, 0);
            link.send(2, 0);
        },
        "third credit");
}

} // namespace
} // namespace noc
