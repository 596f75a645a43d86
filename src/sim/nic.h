/**
 * @file
 * Network interface controller: one per node.
 *
 * Generates packets per the node's traffic source, segments them into
 * flits in an (open-loop) source queue the router pulls from, receives
 * ejected flits, and keeps the per-node statistics the paper reports:
 * injected packets, delivered packets and end-to-end latency.
 */
#ifndef ROCOSIM_SIM_NIC_H_
#define ROCOSIM_SIM_NIC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/annotations.h"
#include "common/config.h"
#include "common/flit.h"
#include "common/ring.h"
#include "common/stats.h"
#include "obs/obs.h"
#include "svc/service.h"
#include "topology/mesh.h"
#include "traffic/trace.h"
#include "traffic/traffic.h"

namespace noc {

class Nic
{
  public:
    /**
     * @p lane, when given, holds this node's source stream (a Network's
     * lane array, see InjectionLane); a standalone NIC owns its own.
     */
    Nic(NodeId id, const SimConfig &cfg, const MeshTopology &topo,
        InjectionLane *lane = nullptr);

    /**
     * Runs the traffic source for cycle @p now and returns the number
     * of packets generated (0 or 1). @p measured tags packets created
     * after warm-up so statistics cover only the measurement window.
     * No-op when @p generationEnabled is false (drain phase).
     *
     * Generated packets draw ids from a per-NIC arithmetic stream
     * (1 + node + seq * numNodes): ids are unique network-wide yet
     * depend only on this NIC's own history, so id assignment is
     * identical whether the NICs run serially or sharded across
     * threads (src/par).
     */
    NOC_PHASE_FN(inject)
    int generate(Cycle now, bool measured, bool generationEnabled);

    /** How an engine drives this source (Network::generateTraffic). */
    enum class Drive : std::uint8_t {
        /** A synthetic Bernoulli source with no service endpoint and
         *  no trace: generate() is the lane's fires() draw followed by
         *  fire() when it fires. */
        Lane,
        /** A Bernoulli service endpoint: generate() is serve() given
         *  the lane's fires() draw, and does nothing unless that draw
         *  fires or the lane's deadline is due. */
        ServiceLane,
        /** Trace replay and non-Bernoulli processes: per-cycle state
         *  of their own, so generate() runs every cycle. */
        PerNode,
    };
    Drive
    drive() const
    {
        if (!traffic_.bernoulli())
            return Drive::PerNode;
        if (svc_) // generate() serves an endpoint before any trace
            return Drive::ServiceLane;
        return trace_ ? Drive::PerNode : Drive::Lane;
    }

    /**
     * Emits the packet of a lane draw that fired during cycle @p now:
     * picks its destination from the lane's stream and enqueues it, as
     * generate() does after the draw. Returns the packets generated (0
     * when the pattern suppresses this source).
     */
    NOC_PHASE_FN(inject) int fire(Cycle now, bool measured);

    /**
     * Service-mode generation for cycle @p now once the arrival draw
     * is known (@p arrived; false outside generation): reclaims the
     * MSHRs the cycle expires, pumps every due reply, then offers a
     * request if the draw arrived. Leaves the endpoint's next deadline
     * in the lane. Returns the requests generated (0 or 1).
     */
    NOC_PHASE_FN(inject) int serve(Cycle now, bool measured, bool arrived);

    /** Attaches the network-wide flit lifecycle counters (may be null). */
    void setLedger(FlitLedger *ledger) { ledger_ = ledger; }

    /** Attaches the trace recorder (null: tracing off; see obs/obs.h). */
    void setObserver(obs::Recorder *obs) { obs_ = obs; }

    /**
     * Registers this node's idle-skip active flag: enqueuing a packet
     * marks the router awake so injection is never skipped (see
     * sim/network.h).
     */
    void setWakeFlag(std::atomic<std::uint8_t> *flag) { wake_ = flag; }

    /** The source queue, which the router pulls injection flits from. */
    GrowRing<Flit> &sourceQueue() { return sourceQueue_; }

    /** Replays @p schedule entries for this node instead of the
     *  synthetic source (Trace traffic). */
    void attachTrace(const TraceSchedule &schedule);
    /** True when a trace is attached and fully replayed. */
    bool traceExhausted() const;

    /**
     * Enqueues one packet to @p dst directly (tests and examples that
     * drive traffic by hand), drawing its id from the caller's
     * @p nextPacketId counter. Returns the packet id.
     */
    std::uint64_t enqueuePacket(NodeId dst, Cycle now,
                                std::uint64_t &nextPacketId,
                                bool measured, bool yxOrder = false);

    /** True when the source queue has a flit ready to inject. */
    bool hasPending() const { return !sourceQueue_.empty(); }
    /** Front of the source queue; only valid when hasPending(). */
    const Flit &peekPending() const;
    /** Removes and returns the front of the source queue. */
    Flit popPending(); // noc-lint:allow(flit-copy) ring hand-off
    /** Receives one ejected flit (the PE always sinks). */
    NOC_PHASE_FN(recv) void deliverFlit(const Flit &f, Cycle now);

    // Statistics
    std::uint64_t injectedPackets() const { return injected_; }
    std::uint64_t injectedMeasured() const { return injectedMeasured_; }
    std::uint64_t deliveredMeasured() const { return deliveredMeasured_; }
    std::uint64_t deliveredPackets() const { return delivered_; }
    std::uint64_t deliveredFlits() const { return deliveredFlits_; }
    const RunningStat &latency() const { return latency_; }
    /** Latency distribution of measured packets (2-cycle bins). */
    const Histogram &latencyHistogram() const { return histogram_; }
    Cycle lastDelivery() const { return lastDelivery_; }

    /** Flits still waiting in the source queue. */
    std::size_t queuedFlits() const { return sourceQueue_.size(); }

    // --- closed-loop traffic service (cfg.svc.enabled) ---------------

    /** Per-class accounting, or null when service mode is off. */
    const svc::ClassStats *classStats() const
    {
        return svc_ ? svc_->cls : nullptr;
    }
    /** The finite-MSHR endpoint, or null when service mode is off. */
    const svc::ServiceEndpoint *endpoint() const
    {
        return svc_ ? &svc_->ep : nullptr;
    }

  private:
    /** Enqueues a generated packet to @p dst (none for kInvalidNode)
     *  under the next id of this NIC's stream; returns packets made. */
    NOC_PHASE_FN(inject) int emit(NodeId dst, Cycle now, bool measured);

    /** Enqueues one packet with an already-assigned id. */
    NOC_PHASE_FN(inject)
    void enqueueWithId(NodeId dst, Cycle now, std::uint64_t pid,
                       bool measured, bool yxOrder, MsgClass cls, int len);

    /** A service request after an arrival draw: destination, order
     *  and tier draws, then the MSHR gate. */
    NOC_PHASE_FN(inject) int request(Cycle now, bool measured);

    /** Dimension order for a service-mode packet of @p cls. */
    NOC_PHASE_FN(inject) bool serviceOrder(MsgClass cls, bool draw) const;

    NodeId id_;
    const SimConfig &cfg_;
    TrafficGenerator traffic_;
    Rng rng_; ///< per-packet choices (XY-YX order)
    std::uint64_t idStride_; ///< nodes in the mesh (id stream step)
    NOC_OWNED_STATE(inject)
    std::uint64_t genSeq_ = 0; ///< packets this NIC has generated
    std::unique_ptr<TraceReplayer> trace_;
    FlitLedger *ledger_ = nullptr;
    obs::Recorder *obs_ = nullptr;
    std::atomic<std::uint8_t> *wake_ = nullptr;
    GrowRing<Flit> sourceQueue_;

    /** Reassembly progress of one packet ejecting here. */
    struct Arrival {
        std::uint64_t packetId = 0;
        int flitsSeen = 0;
        bool measured = false;
    };
    /**
     * Packets mid-reassembly, in no particular order. A NIC reassembles
     * at most one packet per VC delivering to it, a handful, so a
     * linear scan beats hashing, and swap-with-last removal keeps the
     * table allocation-free once it has grown to that handful.
     */
    NOC_OWNED_STATE(recv)
    std::vector<Arrival> arrivals_;
    /** Measured-flag of packets this NIC injected (keyed by id bit). */
    NOC_OWNED_STATE(inject)
    std::uint64_t injected_ = 0;
    NOC_OWNED_STATE(inject)
    std::uint64_t injectedMeasured_ = 0;
    NOC_OWNED_STATE(recv)
    std::uint64_t delivered_ = 0;
    NOC_OWNED_STATE(recv)
    std::uint64_t deliveredMeasured_ = 0;
    NOC_OWNED_STATE(recv)
    std::uint64_t deliveredFlits_ = 0;
    NOC_OWNED_STATE(recv)
    RunningStat latency_;
    NOC_OWNED_STATE(recv)
    Histogram histogram_{2.0, 1024};
    NOC_OWNED_STATE(recv)
    Cycle lastDelivery_ = 0;

    /** Closed-loop endpoint + per-class stats (service mode only). */
    struct SvcState {
        explicit SvcState(const ServiceConfig &svc) : ep(svc) {}
        svc::ServiceEndpoint ep;
        svc::ClassStats cls[kNumMsgClasses];
    };
    NOC_OWNED_STATE(inject, recv)
    std::unique_ptr<SvcState> svc_;
    /** True when the request/reply VC partition is in force. */
    bool svcPartition_ = false;
};

} // namespace noc

#endif // ROCOSIM_SIM_NIC_H_
