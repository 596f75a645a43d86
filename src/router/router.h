/**
 * @file
 * Abstract router: port plumbing, credit bookkeeping, the input-VC
 * pool, look-ahead helpers and activity counting shared by the three
 * microarchitectures. The per-cycle pipeline over that state is
 * router/pipeline.h.
 *
 * A router is stepped once per cycle. All inter-router channels are
 * delay lines that never deliver in the cycle they were written, so
 * routers may be stepped in any order; within step() a router performs
 * its receive, allocation and traversal phases back to back.
 */
#ifndef ROCOSIM_ROUTER_ROUTER_H_
#define ROCOSIM_ROUTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "common/config.h"
#include "common/flit.h"
#include "common/ring.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "power/energy_model.h"
#include "router/vc_buffer.h"
#include "routing/routing.h"
#include "topology/channel.h"
#include "topology/mesh.h"

namespace noc {

/**
 * The router's view of its network interface (PE side). Implemented by
 * sim::Nic; routers pull injection flits and push ejected flits through
 * this interface, which models the PE's single flit-wide local channel.
 */
class NicIf
{
  public:
    virtual ~NicIf() = default;

    /** True when the source queue has a flit ready to inject. */
    virtual bool hasPending() const = 0;
    /** Front of the source queue; only valid when hasPending(). */
    virtual const Flit &peekPending() const = 0;
    /** Removes and returns the front of the source queue. */
    virtual Flit popPending() = 0; // noc-lint:allow(flit-copy) injection hand-off out of the ring
    /** Receives one ejected flit (the PE always sinks). */
    virtual void deliverFlit(const Flit &f, Cycle now) = 0;
};

/** The four wires of one network port. */
struct PortIo {
    FlitChannel *flitIn = nullptr;    ///< flits arriving from upstream
    FlitChannel *flitOut = nullptr;   ///< flits departing downstream
    CreditChannel *creditOut = nullptr; ///< credits back to upstream
    CreditChannel *creditIn = nullptr;  ///< credits from downstream
};

/**
 * Control state for one packet occupying an input VC.
 *
 * Because credits free buffer slots flit by flit, the head of a new
 * packet can arrive while the previous packet's tail is still queued
 * in the same VC; each VC therefore keeps a FIFO of these records and
 * allocates for the front packet only.
 */
struct PacketCtl {
    /**
     * Drop: every minimal next hop is permanently blocked by a hard
     * fault, so the packet is drained and discarded (the paper's
     * "fragmented packets are simply discarded"). Draining frees the
     * VC and returns credits so congestion stays contained around the
     * faulty node.
     */
    enum class Stage : std::uint8_t { VaWait, Active, Drop };

    Stage stage = Stage::VaWait;
    std::uint64_t owner = 0;                ///< packet id
    Direction srcDir = Direction::Invalid;  ///< arrival link
    Direction outDir = Direction::Invalid;  ///< output at this router
    Direction nextLa = Direction::Invalid;  ///< output at next router
    int outSlot = -1;                       ///< downstream VC slot
    Cycle vaEligible = 0; ///< earliest VA cycle (double-routing delay)
    /**
     * Cycle the packet won VC allocation. A switch request issued in
     * the same cycle is *speculative* (stage 1 runs RC|VA|SA in
     * parallel) and yields to non-speculative requests — the paper's
     * arbitration-depth argument: high-contention routers waste their
     * speculative grants, low-contention ones keep them.
     */
    Cycle vaGrantCycle = 0;
};

/** Upstream-side state of one downstream virtual channel. */
struct OutputVc {
    bool busy = false;              ///< allocated to an in-flight packet
    std::uint64_t ownerPacket = 0;  ///< packet holding the VC
    int credits = 0;                ///< sendable flits under my reservation
    int outstanding = 0;            ///< my flits sent, credits not yet back
};

/**
 * Base router: identity, configuration, port wiring, the input-VC pool,
 * output-VC credit tables, look-ahead route computation and fault
 * awareness.
 */
class Router
{
  public:
    Router(NodeId id, const SimConfig &cfg, const MeshTopology &topo,
           const RoutingAlgorithm &routing, const FaultMap *faults);
    virtual ~Router() = default;

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /** Attaches the wires of cardinal port @p d. */
    NOC_PHASE_FN(setup) void connectPort(Direction d, const PortIo &io);
    /** Attaches the processing element. */
    void setNic(NicIf *nic) { nic_ = nic; }
    /**
     * Binds the NIC's source queue for devirtualized injection-side
     * access (sim::Nic exposes its ring; see sim/nic.h). When bound,
     * the per-cycle pending checks bypass the NicIf vtable; unit tests
     * that stub NicIf simply leave it unbound and keep the virtual
     * path. Ejection (deliverFlit) stays virtual — it only fires on
     * actual delivery events, not every cycle.
     */
    void setNicQueue(GrowRing<Flit> *q) { srcQueue_ = q; }
    /** Attaches the network-wide flit lifecycle counters (may be null). */
    void setLedger(FlitLedger *ledger) { ledger_ = ledger; }
    /**
     * Attaches the trace recorder (may be null). The pipeline hooks it
     * feeds are compiled in only under NOC_OBS (see obs/obs.h), so in
     * default builds an attached recorder sees no flit events.
     */
    void setObserver(obs::Recorder *obs) { obs_ = obs; }
    /** Registers the adjacent router behind port @p d (handshake wires). */
    NOC_PHASE_FN(setup) void setNeighbor(Direction d, Router *r);

    /**
     * Registers the idle-skip wake flag of the router behind output
     * @p d: sending a flit or credit on that port marks the receiver
     * active so the engine's fast path never skips a router with an
     * event in flight toward it (see sim/network.h).
     */
    NOC_PHASE_FN(setup)
    void
    setWakeFlag(Direction d, std::atomic<std::uint8_t> *flag)
    {
        wake_[static_cast<int>(d)] = flag;
    }

    /**
     * True when skipping this router's step() would not be a no-op:
     * flits are buffered here, the NIC has injection pending, or an
     * incoming channel holds an in-flight flit or credit. The idle-skip
     * engine clears a router's active flag only when this is false.
     * O(1): incoming occupancy is mirrored into pendFlitIn_ /
     * pendCreditIn_, so no channel object is touched.
     */
    bool
    hasLocalWork() const
    {
        if (workItems_ != 0 || nicHasPending())
            return true;
        for (int d = 0; d < kNumCardinal; ++d) {
            if (pendFlitIn_[d].load(std::memory_order_relaxed) != 0 ||
                pendCreditIn_[d].load(std::memory_order_relaxed) != 0)
                return true;
        }
        return false;
    }

    /**
     * Debug cross-check: the pending mirrors equal the channels' true
     * occupancy (periodic audit in simulator.cpp and the invariant
     * checker; a drifting mirror would silently starve a port).
     */
    bool
    pendMirrorsConsistent() const
    {
        for (int d = 0; d < kNumCardinal; ++d) {
            const PortIo &p = ports_[d];
            const std::size_t f = p.flitIn ? p.flitIn->inFlight() : 0;
            const std::size_t c =
                p.creditIn ? p.creditIn->inFlight() : 0;
            if (pendFlitIn_[d].load(std::memory_order_relaxed) != f ||
                pendCreditIn_[d].load(std::memory_order_relaxed) != c)
                return false;
        }
        return true;
    }

    /** Buffered-flit count kept incrementally (debug cross-check). */
    int workItems() const { return workItems_; }

    /**
     * Receiver-side VC reservation handshake (RoCo / Path-Sensitive).
     *
     * The downstream router referees its own input VC pool: several
     * upstream links may feed one path set, so an upstream probes and
     * reserves a slot over per-VC request/grant wires instead of
     * mirroring ownership locally. @p probeOnly leaves state untouched
     * and returns whether the slot could be reserved; a real call
     * records (@p fromDir, @p packetId). @p freeSpace reports the
     * buffer slots available to the reserver at grant time.
     * The reservation clears when the packet's tail flit is written
     * into the buffer. Only pooled layouts call it (the generic router
     * keeps classic per-link VC state and never reserves).
     *
     * Runs inside the *upstream* router's alloc phase — it is the one
     * sanctioned way a step reaches into a neighbour's NOC_OWNED_STATE,
     * which is why the step schedule must keep same-phase routers at
     * Manhattan distance >= 3 (see topology/partition.h and the
     * NOC_RACE_CHECK validator in par/race_check.h).
     */
    NOC_PHASE_FN(alloc)
    bool reserveInputVc(int slotId, Direction fromDir,
                        std::uint64_t packetId, bool probeOnly,
                        int &freeSpace);

    /** Advances the router by one clock cycle. */
    virtual void step(Cycle now) = 0;

    virtual RouterArch arch() const = 0;

    /** Flits currently buffered in the router (tests / drain detection). */
    virtual int bufferedFlits() const;

    NodeId id() const { return id_; }
    const ActivityCounters &activity() const { return act_; }
    void resetActivity() { act_.reset(); }

    /** SA contention at row-dimension inputs (Figure 3a). */
    const RatioStat &rowContention() const { return rowContention_; }
    /** SA contention at column-dimension inputs (Figure 3b). */
    const RatioStat &colContention() const { return colContention_; }
    void
    resetContention()
    {
        rowContention_.reset();
        colContention_.reset();
    }

    /** This node's fault state (healthy default when no fault map).
     *  Resolved once at construction — the allocation paths consult it
     *  several times per step and the map lookup showed up in profiles. */
    const NodeFaultState &faultState() const { return *fs_; }

    /**
     * Credit-protocol invariant for a drained network: every output VC
     * is idle with all credits home and no flits outstanding. Checked
     * by the integration tests after each drain.
     */
    bool creditsQuiescent() const;

    // --- protocol invariant checker hooks (src/check/invariant.h) ----

    /** Downstream VC slots tracked behind each cardinal output. */
    int outputSlotCount() const { return slotsPerDir_; }
    /** Credits a quiescent output VC holds (the buffer depth). */
    int outputVcDepth() const { return outVcDepth_; }
    /** Read-only view of one output VC's credit state. */
    const OutputVc &
    outputVcAt(Direction d, int slot) const
    {
        return outputVc(d, slot);
    }

    /**
     * Flits buffered in input VC slot @p slotId that arrived over the
     * link from @p fromDir (slot ids use the same numbering flits carry
     * on the wire).  Zero when the slot's occupant entered via another
     * link, so the caller can attribute occupancy per upstream.
     */
    int inputVcOccupancy(Direction fromDir, int slotId) const;

    /**
     * Counts this router's in-flight traffic on the link behind output
     * @p d: @p flits[s] = flits on the wire bound for downstream slot
     * s (ejecting flits carry vc 0xFF and are skipped), @p credits[s] =
     * credits on the wire returning for slot s.  Both vectors are
     * resized to outputSlotCount().
     */
    void countInFlight(Direction d, std::vector<int> &flits,
                       std::vector<int> &credits) const;

    /**
     * Testing hook: leaks one credit from output VC (@p d, @p slot) so
     * the credit-conservation invariant has something to catch.
     */
    void debugCorruptCredit(Direction d, int slot);

  protected:
    /** True when port @p d exists (mesh interior or edge). */
    bool
    hasPort(Direction d) const
    {
        return ports_[static_cast<int>(d)].flitIn != nullptr;
    }

    PortIo &port(Direction d) { return ports_[static_cast<int>(d)]; }
    const PortIo &
    port(Direction d) const
    {
        return ports_[static_cast<int>(d)];
    }

    /** Sentinel output slot: the flit ejects at the next router, no VC. */
    static constexpr int kEjectSlot = -2;

    /**
     * One input VC as views into the router's flit/ctl arenas: the
     * buffers of a router are a single contiguous run of memory (see
     * flitPool_ / ctlPool_ below). The ctl ring holds at most
     * depth + 1 packets — k packets in a VC imply at least k-1 tails
     * plus one more flit buffered, so k <= depth + 1.
     */
    struct InputVc {
        InputVc(Flit *fbase, int depth, PacketCtl *cbase, int ctlCap)
            : buf(fbase, depth), ctl(cbase, ctlCap)
        {}

        VcBuffer buf;
        RingView<PacketCtl> ctl; ///< per-packet state, front = active
        /** Link holding the reservation handshake, Invalid when free. */
        Direction reservedFrom = Direction::Invalid;
        std::uint64_t reservedPacket = 0;
        /** Link whose flits currently occupy the buffer. */
        Direction occupantLink = Direction::Invalid;

        /** True when the front packet's head awaits VC allocation. */
        bool
        headWaiting(Cycle now) const
        {
            return !ctl.empty() &&
                   ctl.front().stage == PacketCtl::Stage::VaWait &&
                   now >= ctl.front().vaEligible && !buf.empty() &&
                   isHead(buf.front().type) &&
                   buf.front().packetId == ctl.front().owner;
        }
    };

    /**
     * How an architecture lays out its input VCs. A flit names its VC
     * on the wire by a slot id. With @c perPortSlots the id counts the
     * VCs of the arrival port alone (generic: in_ index = port * v +
     * slot); otherwise it names one VC of a pool that every upstream
     * link shares (Path-Sensitive quadrant sets, RoCo path sets: in_
     * index = slot), refereed through reserveInputVc().
     */
    struct VcLayout {
        int vcsPerSet;     ///< VCs per port / path set
        int depth;         ///< flit slots per VC
        int inputVcs;      ///< input VCs in the whole router
        bool perPortSlots; ///< wire slots are per-port VC indices
        int vcsPerModule;  ///< input VCs per crossbar module (obs track)
    };

    /**
     * Carves the input VCs of @p layout out of the flit/ctl arenas and
     * sizes the output-VC credit tables to match the downstream slot
     * namespace, each slot starting with @c depth credits. Called from
     * subclass constructors.
     */
    NOC_PHASE_FN(setup) void initInputVcs(const VcLayout &layout);

    /** in_ index of wire slot @p slot arriving over link @p from. */
    int
    inIndex(Direction from, int slot) const
    {
        return portStride_ * static_cast<int>(from) + slot;
    }
    /** Wire slot id of in_[@p idx] as seen by the link @p from. */
    int
    wireSlot(int idx, Direction from) const
    {
        return idx - portStride_ * static_cast<int>(from);
    }
    /** Crossbar module (obs track) owning in_[@p idx]. */
    int moduleOfVc(int idx) const { return idx / vcsPerModule_; }
    /** True when upstream links share one receiver-refereed VC pool. */
    bool pooledSlots() const { return portStride_ == 0; }

    OutputVc &
    outputVc(Direction d, int slot)
    {
        NOC_ASSERT(isCardinal(d), "output VC on non-cardinal port");
        NOC_ASSERT(slot >= 0 && slot < slotsPerDir_, "output slot range");
        return outVc_[static_cast<size_t>(d) * slotsPerDir_ + slot];
    }
    const OutputVc &
    outputVc(Direction d, int slot) const
    {
        return const_cast<Router *>(this)->outputVc(d, slot);
    }
    int outputSlots() const { return slotsPerDir_; }

    /** Pushes @p f downstream on @p d and counts the link traversal. */
    NOC_PHASE_FN(send) void sendFlit(Direction d, const Flit &f, Cycle now);

    /** Returns a credit for VC id @p vcId to the upstream on @p inDir. */
    NOC_PHASE_FN(send)
    void sendCredit(Direction inDir, std::uint8_t vcId, Cycle now);

    /**
     * Drains the credit-return channel of every connected port.
     * Counter-gated: ports whose occupancy mirror reads zero are
     * skipped without touching the channel object.
     */
    template <typename ApplyFn>
    NOC_PHASE_FN(recv)
    void
    receiveCredits(Cycle now, ApplyFn &&apply)
    {
        for (int d = 0; d < kNumCardinal; ++d) {
            std::atomic<std::uint16_t> &pend = pendCreditIn_[d];
            const std::uint16_t n = pend.load(std::memory_order_relaxed);
            if (n == 0)
                continue;
            NOC_ASSERT(ports_[d].creditIn,
                       "credit mirror set on a wireless port");
            const int got = ports_[d].creditIn->drainDue(
                now, [&](const Credit &c) {
                    apply(static_cast<Direction>(d), c.vc);
                });
            pend.store(static_cast<std::uint16_t>(n - got),
                       std::memory_order_relaxed);
        }
    }

    /**
     * Zero-copy receive: the due flit on cardinal port index @p d, or
     * nullptr. Counter-gated like receiveCredits(). The pointee lives
     * in the channel until consumeFlitFrom(d) discards it; consume
     * before stepping any other router.
     */
    NOC_PHASE_FN(recv)
    const Flit *
    peekFlitFrom(int d, Cycle now) const
    {
        if (pendFlitIn_[d].load(std::memory_order_relaxed) == 0)
            return nullptr;
        NOC_ASSERT(ports_[d].flitIn,
                   "flit mirror set on a wireless port");
        return ports_[d].flitIn->peekReady(now);
    }

    /** Discards the flit returned by peekFlitFrom(@p d). */
    NOC_PHASE_FN(recv)
    void
    consumeFlitFrom(int d)
    {
        std::atomic<std::uint16_t> &pend = pendFlitIn_[d];
        ports_[d].flitIn->dropFront();
        pend.store(static_cast<std::uint16_t>(
                       pend.load(std::memory_order_relaxed) - 1),
                   std::memory_order_relaxed);
    }

    /**
     * Whether the whole node is off-line (generic/PS under any fault).
     */
    bool nodeDead() const { return faultState().nodeDead; }

    /**
     * Look-ahead routing (Section 3.1): the output direction @p f will
     * take at the neighbour behind output @p outDir.  Adaptive
     * candidates are filtered against the fault map (the paper's
     * neighbour handshaking) and preference is given to continuing in
     * the current dimension, which keeps flits in dx/dy classes.
     */
    Direction computeLookahead(Direction outDir, const Flit &f) const;

    /**
     * All viable look-ahead candidates for @p f beyond output
     * @p outDir, fault-filtered, in routing preference order. Used by
     * adaptive routers that re-score candidates against downstream
     * credit state on every allocation attempt.
     */
    DirectionSet lookaheadCandidates(Direction outDir, const Flit &f) const;

    /** Records one SA global-stage outcome for the contention probes. */
    void
    noteContention(bool rowInput, bool denied)
    {
        RatioStat &s = rowInput ? rowContention_ : colContention_;
        if (denied)
            s.hit();
        else
            s.miss();
    }

    /** Routing kind, cached to keep it off the virtual hot path. */
    RoutingKind routingKind() const { return routingKind_; }

    /** True when the packet's destination node is off-line. */
    bool destinationDead(const Flit &f) const;

    /**
     * Counts a flit that leaves the network without being delivered
     * (fault drop at the source queue or in an input VC), keeping the
     * network's drain ledger and flit-cycle residency totals exact.
     */
    void
    retireFlit(const Flit &f, Cycle now)
    {
        if (ledger_) {
            ++ledger_->retired;
            ++ledger_->retiredByClass[clsIndex(f.cls)];
            ledger_->flitCycles +=
                static_cast<std::uint64_t>(now - f.createTime);
        }
    }

    // --- devirtualized NIC fast path --------------------------------

    /** True when the source queue has a flit ready to inject. */
    bool
    nicHasPending() const
    {
        return srcQueue_ ? !srcQueue_->empty()
                         : (nic_ && nic_->hasPending());
    }

    /** Front of the source queue; only valid when nicHasPending(). */
    const Flit &
    nicPeekPending() const
    {
        return srcQueue_ ? srcQueue_->front() : nic_->peekPending();
    }

    /** Removes and returns the front of the source queue. */
    Flit // noc-lint:allow(flit-copy) injection hand-off out of the ring
    nicPopPending()
    {
        return srcQueue_ ? srcQueue_->pop_front() : nic_->popPending();
    }

    /** Buffered-flit accounting for the idle-skip work counter; call
     *  at every input-VC push / pop site. */
    void noteFlitBuffered() { ++workItems_; }
    void
    noteFlitUnbuffered()
    {
        NOC_ASSERT(workItems_ > 0, "work counter underflow");
        --workItems_;
    }

    /** Adjacent router behind @p d, or nullptr at a mesh edge. */
    Router *neighbor(Direction d) const
    {
        return neighbors_[static_cast<int>(d)];
    }

    const SimConfig &cfg_;
    const MeshTopology &topo_;
    const RoutingAlgorithm &routing_;
    const FaultMap *faults_;  ///< may be null (fault-free run)
    NicIf *nic_ = nullptr;
    FlitLedger *ledger_ = nullptr; ///< may be null (standalone tests)
    obs::Recorder *obs_ = nullptr; ///< may be null (tracing off)
    ActivityCounters act_;
    Rng rng_; ///< deterministic tie-breaking

    int numVcs_ = 0; ///< VCs per port / path set
    int depth_ = 0;  ///< flit slots per input VC
    NOC_OWNED_STATE(recv, alloc, send)
    std::vector<InputVc> in_; ///< indexed as VcLayout describes

  private:
    /** Flit slots of all input VCs, carved depth_ apiece (SoA arena). */
    std::vector<Flit> flitPool_;
    /** PacketCtl records of all input VCs, depth_+1 apiece. */
    std::vector<PacketCtl> ctlPool_;
    int portStride_ = 0;   ///< numVcs_ with per-port slots, else 0
    int vcsPerModule_ = 1; ///< see VcLayout::vcsPerModule

    NodeId id_;
    /** Cached &faults_->state(id_) (or a shared healthy default). */
    const NodeFaultState *fs_;
    PortIo ports_[kNumPorts];
    Router *neighbors_[kNumPorts] = {};
    /** Neighbour active flags, set on send (idle-skip wake-up). */
    std::atomic<std::uint8_t> *wake_[kNumPorts] = {};
    /** Direct view of the NIC's source queue (may be null: test stubs). */
    GrowRing<Flit> *srcQueue_ = nullptr;
    /** Flits buffered in this router's input VCs (incremental). */
    int workItems_ = 0;
    /**
     * In-flight entries on each incoming channel, mirrored into the
     * receiver so hasLocalWork() and the receive loops read this
     * router's own cache line instead of polling eight channel
     * objects. The sender increments on send (see sendFlit /
     * sendCredit); the receiver decrements on pop. The pentachromatic
     * distance-2 phase schedule serialises every access — all senders
     * into a node sit in phases distinct from each other and from the
     * node itself — so relaxed load/store (never RMW) suffices; the
     * atomic type keeps the cross-shard handoff tsan-clean.
     *
     * Ordering argument, spelled out: within one phase each mirror
     * slot has exactly one live accessor (the slot is per incoming
     * direction, so two senders into the same node never share one),
     * which makes every access single-threaded-sequenced; across
     * phases the shard engine's progress hand-off between bordering
     * shards' boundary steps provides the release/acquire edge, so
     * relaxed suffices and no fence is needed here. The
     * NOC_RACE_CHECK dynamic checker re-verifies the single-accessor
     * claim every superstep (see par/race_check.h).
     */
    NOC_SHARED_ATOMIC(recv, send)
    std::atomic<std::uint16_t> pendFlitIn_[kNumCardinal] = {};
    NOC_SHARED_ATOMIC(recv, send)
    std::atomic<std::uint16_t> pendCreditIn_[kNumCardinal] = {};
    static_assert(std::atomic<std::uint16_t>::is_always_lock_free,
                  "occupancy mirrors must be plain lock-free stores; a "
                  "locking atomic would serialise every shard on a mutex");

    /** Phase-serialised single-writer increment (no RMW needed). */
    NOC_PHASE_FN(send)
    static void
    bumpPend(std::atomic<std::uint16_t> &c)
    {
        c.store(static_cast<std::uint16_t>(
                    c.load(std::memory_order_relaxed) + 1),
                std::memory_order_relaxed);
    }
    std::vector<OutputVc> outVc_; ///< [dir * slotsPerDir_ + slot]
    int slotsPerDir_ = 0;
    int outVcDepth_ = 0; ///< credits a quiescent slot holds
    RatioStat rowContention_;
    RatioStat colContention_;
    /** routing_.kind(), resolved once (it is consulted per step). */
    RoutingKind routingKind_;
};

} // namespace noc

#endif // ROCOSIM_ROUTER_ROUTER_H_
