#include "svc/service.h"

#include <algorithm>

#include "common/log.h"

namespace noc {
namespace svc {

void
ClassStats::merge(const ClassStats &other)
{
    injectedPackets += other.injectedPackets;
    deliveredPackets += other.deliveredPackets;
    latency.merge(other.latency);
    latencyHist.merge(other.latencyHist);
    rtt.merge(other.rtt);
    rttHist.merge(other.rttHist);
    sloViolations += other.sloViolations;
}

ServiceEndpoint::ServiceEndpoint(const ServiceConfig &svc)
    : maxOutstanding_(svc.mshrsPerNode), timeout_(svc.mshrTimeout),
      serviceLatency_(svc.serviceLatency)
{
}

void
ServiceEndpoint::reclaim(Cycle now)
{
    while (!mshrs_.empty()) {
        const Mshr &front = mshrs_.front();
        if (front.done) {
            // Completed earlier while buried behind older entries.
            mshrs_.pop_front();
            ++frontSeq_;
            continue;
        }
        if (now - front.injectCycle < timeout_)
            break;
        // Unanswered past the deadline: the request was dropped at a
        // fault (or its reply was), so no completion will ever come.
        // Reclaim the window slot; a late reply is tolerated in
        // onReplyDelivered.
        bySeq_.erase(front.packetId);
        mshrs_.pop_front();
        ++frontSeq_;
        --outstanding_;
        ++timeouts_;
    }
}

void
ServiceEndpoint::onRequestInjected(std::uint64_t packetId, Cycle now,
                                   int tier)
{
    NOC_ASSERT(outstanding_ < maxOutstanding_,
               "request injected past the MSHR window");
    Mshr m;
    m.packetId = packetId;
    m.injectCycle = now;
    m.tier = static_cast<std::uint8_t>(tier);
    bySeq_.emplace(packetId, frontSeq_ + mshrs_.size());
    mshrs_.push_back(m);
    ++outstanding_;
}

void
ServiceEndpoint::onRequestDelivered(const Flit &tail, Cycle now)
{
    PendingReply r;
    r.fire = now + serviceLatency_;
    r.requester = tail.src;
    r.packetId = tail.packetId;
    r.cls = makeMsgClass(true, tierOfClass(tail.cls));
    r.measured = tail.measured;
    NOC_ASSERT(pending_.empty() || pending_.back().fire <= r.fire,
               "reply fire cycles must stay monotone");
    pending_.push_back(r);
}

Cycle
ServiceEndpoint::nextDeadline() const
{
    Cycle due = pending_.empty() ? kNever : pending_.front().fire;
    if (!mshrs_.empty()) {
        // reclaim() expires the front once now - injectCycle reaches
        // the timeout; saturate, since the timeout has no upper bound.
        const Cycle sent = mshrs_.front().injectCycle;
        due = std::min(due, timeout_ > kNever - sent ? kNever
                                                     : sent + timeout_);
    }
    return due;
}

ServiceEndpoint::Completion
ServiceEndpoint::onReplyDelivered(std::uint64_t packetId)
{
    Completion c;
    auto it = bySeq_.find(packetId);
    if (it == bySeq_.end()) {
        // The MSHR timed out before the reply made it back (faulty
        // meshes can delay a reply past any finite deadline).
        ++lateReplies_;
        return c;
    }
    Mshr &m = mshrs_[static_cast<std::size_t>(it->second - frontSeq_)];
    NOC_ASSERT(m.packetId == packetId && !m.done,
               "MSHR index out of sync with reply");
    c.known = true;
    c.injectCycle = m.injectCycle;
    c.tier = m.tier;
    m.done = true;
    bySeq_.erase(it);
    --outstanding_;
    return c;
}

} // namespace svc
} // namespace noc
