#include "sim/nic.h"

#include <memory>

#include "common/log.h"
#include "obs/recorder.h"
#include "svc/protocol.h"

namespace noc {

Nic::Nic(NodeId id, const SimConfig &cfg, const MeshTopology &topo,
         InjectionLane *lane)
    : id_(id), cfg_(cfg), traffic_(cfg, topo, id, lane),
      rng_(cfg.seed, 0x41C0000ull + id),
      idStride_(static_cast<std::uint64_t>(topo.numNodes()))
{
    if (cfg.svc.enabled) {
        svc_ = std::make_unique<SvcState>(cfg.svc);
        svcPartition_ = svc::classPartitionActive(cfg);
    }
}

void
Nic::attachTrace(const TraceSchedule &schedule)
{
    trace_ = std::make_unique<TraceReplayer>(schedule, id_);
}

bool
Nic::traceExhausted() const
{
    return trace_ && trace_->exhausted();
}

int
Nic::generate(Cycle now, bool measured, bool generationEnabled)
{
    if (svc_)
        return serve(now, measured,
                     generationEnabled && traffic_.arrives(now));
    if (!generationEnabled)
        return 0;
    if (trace_)
        return emit(trace_->next(now), now, measured);
    return emit(traffic_.maybeGenerate(now).value_or(kInvalidNode), now,
                measured);
}

int
Nic::fire(Cycle now, bool measured)
{
    return emit(traffic_.destination(), now, measured);
}

int
Nic::emit(NodeId dst, Cycle now, bool measured)
{
    if (dst == kInvalidNode)
        return 0;
    std::uint64_t pid = 1 + static_cast<std::uint64_t>(id_) +
                        genSeq_++ * idStride_;
    enqueueWithId(dst, now, pid, measured, rng_.nextBool(0.5), 0,
                  cfg_.flitsPerPacket);
    return 1;
}

bool
Nic::serviceOrder(MsgClass cls, bool draw) const
{
    // Under the class-VC partition requests are pinned to XY and
    // replies to YX (the prover's structural argument); otherwise
    // XYYX keeps its per-packet order draw and XY/Adaptive ignore it.
    if (svcPartition_)
        return isReplyClass(cls);
    return cfg_.routing == RoutingKind::XYYX && draw;
}

int
Nic::serve(Cycle now, bool measured, bool arrived)
{
    svc::ServiceEndpoint &ep = svc_->ep;
    ep.reclaim(now);

    // Pump every due reply first. This runs during the drain phase too
    // (no arrivals): the closed loop must finish answering requests
    // already consumed, or termination would truncate them. The reply
    // draws come from the NIC's own stream, the arrival draw from the
    // lane's, so the draw may be taken before the pump.
    while (const svc::ServiceEndpoint::PendingReply *r = ep.dueReply(now)) {
        bool order = serviceOrder(r->cls, rng_.nextBool(0.5));
        enqueueWithId(r->requester, now, r->packetId, r->measured, order,
                      r->cls, cfg_.svc.replyFlits ? cfg_.svc.replyFlits
                                                  : cfg_.flitsPerPacket);
        svc_->cls[clsIndex(r->cls)].injectedPackets++;
        if (ledger_) {
            NOC_ASSERT(ledger_->svcPending > 0, "reply pump underflow");
            --ledger_->svcPending;
        }
        ep.popReply();
    }

    const int made = arrived ? request(now, measured) : 0;
    traffic_.lane().due = ep.nextDeadline();
    return made;
}

int
Nic::request(Cycle now, bool measured)
{
    svc::ServiceEndpoint &ep = svc_->ep;
    const NodeId dst = traffic_.destination();
    if (dst == kInvalidNode)
        return 0;
    // Draws are consumed whether or not the request is admitted, so
    // the per-NIC rng stream advances identically on every engine.
    bool orderDraw = rng_.nextBool(0.5);
    int tier = rng_.nextBool(cfg_.svc.highTierFraction) ? 0 : 1;
    if (!ep.canInject()) {
        ep.noteThrottled(); // window full: the draw is discarded
        return 0;
    }
    std::uint64_t pid = 1 + static_cast<std::uint64_t>(id_) +
                        genSeq_++ * idStride_;
    MsgClass cls = makeMsgClass(false, tier);
    enqueueWithId(dst, now, pid, measured, serviceOrder(cls, orderDraw),
                  cls, cfg_.flitsPerPacket);
    svc_->cls[clsIndex(cls)].injectedPackets++;
    ep.onRequestInjected(pid, now, tier);
    return 1;
}

std::uint64_t
Nic::enqueuePacket(NodeId dst, Cycle now, std::uint64_t &nextPacketId,
                   bool measured, bool yxOrder)
{
    std::uint64_t pid = nextPacketId++;
    enqueueWithId(dst, now, pid, measured, yxOrder, 0, cfg_.flitsPerPacket);
    return pid;
}

void
Nic::enqueueWithId(NodeId dst, Cycle now, std::uint64_t pid, bool measured,
                   bool yxOrder, MsgClass cls, int len)
{
    NOC_ASSERT(dst != id_, "packet to self");
    for (int i = 0; i < len; ++i) {
        Flit f;
        f.packetId = pid;
        f.flitSeq = static_cast<std::uint16_t>(i);
        f.packetLen = static_cast<std::uint16_t>(len);
        if (len == 1)
            f.type = FlitType::HeadTail;
        else if (i == 0)
            f.type = FlitType::Head;
        else if (i == len - 1)
            f.type = FlitType::Tail;
        else
            f.type = FlitType::Body;
        f.src = id_;
        f.dst = dst;
        f.createTime = now;
        f.yxOrder = yxOrder;
        f.measured = measured;
        f.cls = cls;
        if (obs_ && isHead(f.type))
            obs_->record(obs::Stage::SourceEnqueue, f, id_, now);
        sourceQueue_.push_back(f);
    }
    ++injected_;
    if (measured)
        ++injectedMeasured_;
    if (ledger_) {
        ledger_->created += static_cast<std::uint64_t>(len);
        ledger_->createdByClass[clsIndex(cls)] +=
            static_cast<std::uint64_t>(len);
    }
    if (wake_)
        wake_->store(1, std::memory_order_relaxed);
}

const Flit &
Nic::peekPending() const
{
    NOC_ASSERT(!sourceQueue_.empty(), "peek on empty source queue");
    return sourceQueue_.front();
}

Flit // noc-lint:allow(flit-copy) ring hand-off, slot is recycled
Nic::popPending()
{
    NOC_ASSERT(!sourceQueue_.empty(), "pop on empty source queue");
    return sourceQueue_.pop_front();
}

void
Nic::deliverFlit(const Flit &f, Cycle now)
{
    NOC_ASSERT(f.dst == id_, "flit delivered to the wrong NIC");
    ++deliveredFlits_;
    lastDelivery_ = now;
    if (ledger_) {
        ++ledger_->retired;
        ++ledger_->retiredByClass[clsIndex(f.cls)];
        ledger_->lastDelivery = now;
        ledger_->flitCycles +=
            static_cast<std::uint64_t>(now - f.createTime);
    }

    if (obs_ && isHead(f.type))
        obs_->record(obs::Stage::Eject, f, id_, now);

    std::size_t slot = 0;
    while (slot < arrivals_.size() &&
           arrivals_[slot].packetId != f.packetId)
        ++slot;
    if (slot == arrivals_.size())
        arrivals_.push_back(Arrival{f.packetId, 0, false});
    Arrival &a = arrivals_[slot];
    a.measured = a.measured || f.measured;
    // Wormhole switching delivers a packet's flits strictly in order.
    NOC_ASSERT(a.flitsSeen == f.flitSeq, "out-of-order flit delivery");
    ++a.flitsSeen;
    NOC_ASSERT(a.flitsSeen <= f.packetLen, "duplicate flit delivery");
    if (a.flitsSeen == f.packetLen) {
        const bool measured = a.measured;
        a = arrivals_.back(); // swap-with-last removal
        arrivals_.pop_back();
        ++delivered_;
        if (measured) {
            ++deliveredMeasured_;
            double lat = static_cast<double>(now - f.createTime);
            latency_.add(lat);
            histogram_.add(lat);
        }
        if (svc_) {
            svc::ClassStats &cs = svc_->cls[clsIndex(f.cls)];
            ++cs.deliveredPackets;
            if (measured) {
                cs.latency.add(static_cast<double>(now - f.createTime));
                cs.latencyHist.record(now - f.createTime);
            }
            if (!isReplyClass(f.cls)) {
                // Server side: the request is consumed; its reply
                // becomes a pending obligation the drain logic must
                // wait out (ledger svcPending).
                svc_->ep.onRequestDelivered(f, now);
                traffic_.lane().due = svc_->ep.nextDeadline();
                if (ledger_)
                    ++ledger_->svcPending;
            } else {
                // Requester side: close the loop, free the MSHR and
                // account the round trip against the tier's SLO.
                svc::ServiceEndpoint::Completion c =
                    svc_->ep.onReplyDelivered(f.packetId);
                if (c.known && measured) {
                    Cycle rtt = now - c.injectCycle;
                    svc::ClassStats &rq =
                        svc_->cls[clsIndex(makeMsgClass(false, c.tier))];
                    rq.rtt.add(static_cast<double>(rtt));
                    rq.rttHist.record(rtt);
                    Cycle slo = c.tier == 0 ? cfg_.svc.sloHighCycles
                                            : cfg_.svc.sloBulkCycles;
                    if (rtt > slo)
                        ++rq.sloViolations;
                }
            }
        }
        if (obs_)
            obs_->recordEndToEnd(f, now);
    }
}

} // namespace noc
