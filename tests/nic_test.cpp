/** @file Unit tests for the network interface controller. */
#include <gtest/gtest.h>

#include "sim/nic.h"

namespace noc {
namespace {

class NicFixture : public testing::Test
{
  protected:
    SimConfig cfg_;
    MeshTopology topo_{4, 4};
    std::uint64_t nextId_ = 1;
};

TEST_F(NicFixture, SegmentsPacketsIntoFlits)
{
    Nic nic(0, cfg_, topo_);
    nic.enqueuePacket(5, 100, nextId_, true);
    EXPECT_EQ(nic.queuedFlits(), 4u);
    EXPECT_EQ(nic.injectedPackets(), 1u);
    EXPECT_EQ(nic.injectedMeasured(), 1u);

    Flit head = nic.popPending();
    EXPECT_EQ(head.type, FlitType::Head);
    EXPECT_EQ(head.src, 0u);
    EXPECT_EQ(head.dst, 5u);
    EXPECT_EQ(head.createTime, 100u);
    EXPECT_EQ(head.packetLen, 4);
    EXPECT_TRUE(head.measured);

    EXPECT_EQ(nic.popPending().type, FlitType::Body);
    EXPECT_EQ(nic.popPending().type, FlitType::Body);
    Flit tail = nic.popPending();
    EXPECT_EQ(tail.type, FlitType::Tail);
    EXPECT_EQ(tail.flitSeq, 3);
    EXPECT_FALSE(nic.hasPending());
}

TEST_F(NicFixture, SingleFlitPacketIsHeadTail)
{
    cfg_.flitsPerPacket = 1;
    Nic nic(0, cfg_, topo_);
    nic.enqueuePacket(3, 0, nextId_, false);
    EXPECT_EQ(nic.popPending().type, FlitType::HeadTail);
}

TEST_F(NicFixture, DeliveryCompletesAtTail)
{
    Nic src(0, cfg_, topo_);
    Nic dst(5, cfg_, topo_);
    src.enqueuePacket(5, 10, nextId_, true);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(dst.deliveredMeasured(), 0u);
        dst.deliverFlit(src.popPending(), 30 + i);
    }
    EXPECT_EQ(dst.deliveredPackets(), 1u);
    EXPECT_EQ(dst.deliveredMeasured(), 1u);
    EXPECT_EQ(dst.deliveredFlits(), 4u);
    // Latency: tail delivered at 33, created at 10.
    EXPECT_DOUBLE_EQ(dst.latency().mean(), 23.0);
    EXPECT_EQ(dst.lastDelivery(), 33u);
}

TEST_F(NicFixture, UnmeasuredPacketsSkipLatencyStats)
{
    Nic src(0, cfg_, topo_);
    Nic dst(5, cfg_, topo_);
    src.enqueuePacket(5, 10, nextId_, false);
    for (int i = 0; i < 4; ++i)
        dst.deliverFlit(src.popPending(), 20);
    EXPECT_EQ(dst.deliveredPackets(), 1u);
    EXPECT_EQ(dst.deliveredMeasured(), 0u);
    EXPECT_EQ(dst.latency().count(), 0u);
}

TEST_F(NicFixture, GenerationRespectsEnableFlag)
{
    cfg_.injectionRate = 1.0; // fires essentially every cycle
    Nic nic(0, cfg_, topo_);
    for (Cycle t = 0; t < 100; ++t)
        EXPECT_EQ(nic.generate(t, false, false), 0);
    EXPECT_EQ(nic.injectedPackets(), 0u);
    std::uint64_t generated = 0;
    for (Cycle t = 0; t < 100; ++t)
        generated += static_cast<std::uint64_t>(nic.generate(t, false, true));
    EXPECT_GT(nic.injectedPackets(), 10u);
    EXPECT_EQ(generated, nic.injectedPackets());
}

TEST_F(NicFixture, InterleavedDeliveriesReassembleByPacket)
{
    Nic a(0, cfg_, topo_);
    Nic b(1, cfg_, topo_);
    Nic c(2, cfg_, topo_);
    Nic dst(5, cfg_, topo_);
    a.enqueuePacket(5, 0, nextId_, true);
    b.enqueuePacket(5, 0, nextId_, true);
    c.enqueuePacket(5, 0, nextId_, false);
    // c's head arrives first, then a's and b's; c then completes while
    // the other two are mid-reassembly, so its entry leaves from the
    // front of the table rather than the back.
    dst.deliverFlit(c.popPending(), 10);
    dst.deliverFlit(a.popPending(), 10);
    dst.deliverFlit(b.popPending(), 10);
    for (int i = 1; i < 4; ++i)
        dst.deliverFlit(c.popPending(), 11);
    EXPECT_EQ(dst.deliveredPackets(), 1u);
    EXPECT_EQ(dst.deliveredMeasured(), 0u);
    // Interleave the rest of the two packets (arriving on two ports).
    for (int i = 1; i < 4; ++i) {
        dst.deliverFlit(a.popPending(), 12);
        dst.deliverFlit(b.popPending(), 12);
    }
    EXPECT_EQ(dst.deliveredPackets(), 3u);
    EXPECT_EQ(dst.deliveredMeasured(), 2u); // flags followed their packets
    EXPECT_EQ(dst.deliveredFlits(), 12u);
}

TEST_F(NicFixture, DeathOnWrongDestination)
{
    Nic src(0, cfg_, topo_);
    Nic dst(5, cfg_, topo_);
    src.enqueuePacket(7, 0, nextId_, true);
    EXPECT_DEATH(dst.deliverFlit(src.popPending(), 1), "wrong NIC");
}

TEST_F(NicFixture, DeathOnOutOfOrderDelivery)
{
    Nic src(0, cfg_, topo_);
    Nic dst(5, cfg_, topo_);
    src.enqueuePacket(5, 0, nextId_, true);
    (void)src.popPending(); // drop the head
    Flit body = src.popPending();
    EXPECT_DEATH(dst.deliverFlit(body, 1), "out-of-order");
}

TEST_F(NicFixture, DeathOnDuplicateDelivery)
{
    Nic src(0, cfg_, topo_);
    Nic dst(5, cfg_, topo_);
    src.enqueuePacket(5, 0, nextId_, true);
    dst.deliverFlit(src.popPending(), 1);
    // The next flit in order, but past the length its packet claims:
    // one flit more than the packet has.
    Flit extra = src.popPending();
    extra.packetLen = 1;
    EXPECT_DEATH(dst.deliverFlit(extra, 2), "duplicate");
}

} // namespace
} // namespace noc
