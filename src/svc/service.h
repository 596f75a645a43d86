/**
 * @file
 * Closed-loop traffic-service endpoint (finite-MSHR request/reply
 * state machine) and per-class accounting.
 *
 * One ServiceEndpoint lives inside each NIC when cfg.svc.enabled. It
 * turns the open-loop traffic draw into a *request* stream gated by a
 * finite MSHR window, and turns request deliveries at the destination
 * into deterministically scheduled *replies*:
 *
 *   requester                         server
 *   ---------                         ------
 *   traffic draw + free MSHR
 *     -> inject request  ──────────▶  request tail delivered
 *                                       schedule reply at
 *                                       now + serviceLatency
 *   reply tail delivered ◀──────────  inject reply (same packetId)
 *     free MSHR, record RTT
 *
 * Everything is driven from the NIC's two phase entry points (inject
 * and recv), both shard-local, so the sharded engine's bit-identity
 * contract extends to service mode without any new synchronisation.
 * Replies reuse the request's packetId: the request is fully retired
 * before the reply is created, so IDs never coexist, and the reuse is
 * what makes the MSHR lookup and the RTT measurement O(1).
 */
#ifndef ROCOSIM_SVC_SERVICE_H_
#define ROCOSIM_SVC_SERVICE_H_

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "common/annotations.h"
#include "common/config.h"
#include "common/flit.h"
#include "common/stats.h"
#include "common/types.h"
#include "obs/hdr_histogram.h"

namespace noc {
namespace svc {

/**
 * Per-message-class latency/SLO accumulators, kept per NIC and merged
 * across nodes (in node order, so the merge is deterministic) into the
 * SimResult's per-class block.
 */
struct ClassStats {
    std::uint64_t injectedPackets = 0;  ///< packets entering the source queue
    std::uint64_t deliveredPackets = 0; ///< packets fully ejected here

    /** One-way network latency of measured packets of this class. */
    RunningStat latency;
    obs::HdrHistogram latencyHist;

    /**
     * Request round-trip time (inject request -> reply tail delivered),
     * recorded at the requester on the *request* classes only.
     */
    RunningStat rtt;
    obs::HdrHistogram rttHist;

    /** Measured RTTs that exceeded the tier's SLO threshold. */
    std::uint64_t sloViolations = 0;

    /** Folds @p other in; histogram geometries always match. */
    void merge(const ClassStats &other);
};

/**
 * Finite-MSHR endpoint state machine.
 *
 * MSHRs are reclaimed in injection order from the front of a deque:
 * completion marks an entry done in place, and a timeout (needed under
 * faults, where a source-dropped request never produces a reply) only
 * ever fires at the front, because injection cycles are monotone. Both
 * paths are functions of simulation state alone — no wall clock, no
 * iteration over unordered containers — so the endpoint is
 * bit-deterministic across engine shapes.
 */
class ServiceEndpoint
{
  public:
    /** A reply obligation waiting out its service latency. */
    struct PendingReply {
        Cycle fire = 0;             ///< injection becomes due this cycle
        NodeId requester = kInvalidNode;
        std::uint64_t packetId = 0; ///< the request's id, reused
        MsgClass cls = 0;           ///< reply class (request tier kept)
        bool measured = false;      ///< inherited from the request
    };

    /** RTT/ownership info returned when a reply lands. */
    struct Completion {
        bool known = false;   ///< false: MSHR already timed out
        Cycle injectCycle = 0;
        int tier = 0;
    };

    explicit ServiceEndpoint(const ServiceConfig &svc);

    /**
     * Reclaims front MSHRs that are done or have exceeded mshrTimeout.
     * Called once per cycle at the top of NIC generation so expiry
     * depends only on the cycle number, never on traffic draws.
     */
    NOC_PHASE_FN(inject) void reclaim(Cycle now);

    /** True while a free MSHR remains for a new request. */
    NOC_PHASE_FN(inject) bool canInject() const
    {
        return outstanding_ < maxOutstanding_;
    }

    /** Records a freshly injected request in the MSHR table. */
    NOC_PHASE_FN(inject)
    void onRequestInjected(std::uint64_t packetId, Cycle now, int tier);

    /** Counts a traffic draw discarded because the window was full. */
    NOC_PHASE_FN(inject) void noteThrottled() { ++throttled_; }

    /**
     * Server side: a request tail arrived here; schedule its reply.
     * Fire cycles are monotone (now is), so the pending deque stays
     * sorted by construction.
     */
    NOC_PHASE_FN(recv)
    void onRequestDelivered(const Flit &tail, Cycle now);

    /** The front reply obligation if it is due at @p now, else null. */
    NOC_PHASE_FN(inject) const PendingReply *dueReply(Cycle now) const
    {
        if (pending_.empty() || pending_.front().fire > now)
            return nullptr;
        return &pending_.front();
    }

    /** Consumes the front reply obligation (it was just injected). */
    NOC_PHASE_FN(inject) void popReply() { pending_.pop_front(); }

    /**
     * Requester side: a reply tail arrived; frees the MSHR and hands
     * back the data the RTT/SLO accounting needs. A reply whose MSHR
     * already timed out is tolerated (counted, not fatal).
     */
    NOC_PHASE_FN(recv) Completion onReplyDelivered(std::uint64_t packetId);

    /**
     * The first cycle at which reclaim() or dueReply() can act with no
     * new input: the front reply's fire cycle or the front MSHR's
     * expiry, whichever comes first; kNever when both queues are empty.
     * A front MSHR already answered only makes it early, never late.
     */
    Cycle nextDeadline() const;

    int outstanding() const { return outstanding_; }
    std::size_t pendingReplies() const { return pending_.size(); }
    std::uint64_t timeouts() const { return timeouts_; }
    std::uint64_t lateReplies() const { return lateReplies_; }
    std::uint64_t throttled() const { return throttled_; }

  private:
    struct Mshr {
        std::uint64_t packetId = 0;
        Cycle injectCycle = 0;
        std::uint8_t tier = 0;
        bool done = false;
    };

    int maxOutstanding_;
    Cycle timeout_;
    Cycle serviceLatency_;

    /**
     * MSHR table in injection order plus an id index. Entries keep
     * their deque slot until they reach the front (done entries are
     * popped lazily), so iterator/index stability is never relied on
     * beyond front/back.
     */
    NOC_OWNED_STATE(inject, recv) std::deque<Mshr> mshrs_;
    NOC_OWNED_STATE(inject, recv)
    std::unordered_map<std::uint64_t, std::uint64_t> bySeq_;
    NOC_OWNED_STATE(inject) std::uint64_t frontSeq_ = 0;
    NOC_OWNED_STATE(inject, recv) int outstanding_ = 0;

    NOC_OWNED_STATE(inject, recv) std::deque<PendingReply> pending_;

    NOC_OWNED_STATE(inject) std::uint64_t timeouts_ = 0;
    NOC_OWNED_STATE(recv) std::uint64_t lateReplies_ = 0;
    NOC_OWNED_STATE(inject) std::uint64_t throttled_ = 0;
};

} // namespace svc
} // namespace noc

#endif // ROCOSIM_SVC_SERVICE_H_
