/**
 * @file
 * Abstract router: port plumbing, credit bookkeeping, the input-VC
 * pool, look-ahead helpers and activity counting shared by the three
 * microarchitectures. The per-cycle pipeline over that state is
 * router/pipeline.h.
 *
 * A router is stepped once per cycle. All inter-router links are
 * arrival-slot rings (topology/channel.h) that never deliver in the
 * cycle they were written, so routers may be stepped in any order;
 * within step() a router performs its receive, allocation and
 * traversal phases back to back.
 */
#ifndef ROCOSIM_ROUTER_ROUTER_H_
#define ROCOSIM_ROUTER_ROUTER_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "common/config.h"
#include "common/flit.h"
#include "common/ring.h"
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

class Nic; // sim/nic.h: the PE side of a router

/**
 * The flit rings of one network port (topology/channel.h), owned by the
 * Network. Credits have no wire object: a credit is a VC bit in the
 * upstream router's pendCreditIn_.
 */
struct PortIo {
    const Flit *flitIn = nullptr; ///< ring of the link from upstream
    Flit *flitOut = nullptr;      ///< ring of the link to downstream
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
};

/** Upstream-side state of one downstream virtual channel. */
struct OutputVc {
    bool busy = false;              ///< allocated to an in-flight packet
    int ownerIn = -1;               ///< holder's input VC, while busy
    int credits = 0;                ///< sendable flits under my reservation
    int outstanding = 0;            ///< my flits sent, credits not yet back
};

/** The pipeline stage an input VC's front packet can act in now. */
enum class VcStage : std::uint8_t {
    Idle,    ///< empty, or waiting on a flit or a downstream credit
    VaWait,  ///< the front head waits for VC allocation
    SaReady, ///< the front flit may request the switch
    Drain,   ///< the front packet is discarded and has a flit buffered
};

/** Stage bits over a router's input VCs, bit i = input VC i. */
struct StageMasks {
    std::uint64_t vaWait = 0;     ///< VcStage::VaWait
    std::uint64_t saReady = 0;    ///< VcStage::SaReady
    std::uint64_t drainReady = 0; ///< VcStage::Drain

    /** Puts input VC @p idx in the mask of @p s and no other. */
    void
    set(int idx, VcStage s)
    {
        const std::uint64_t bit = 1ull << idx;
        vaWait = (vaWait & ~bit) | (s == VcStage::VaWait ? bit : 0);
        saReady = (saReady & ~bit) | (s == VcStage::SaReady ? bit : 0);
        drainReady = (drainReady & ~bit) | (s == VcStage::Drain ? bit : 0);
    }
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

    /** Attaches the flit rings of cardinal port @p d. */
    NOC_PHASE_FN(setup) void connectPort(Direction d, const PortIo &io);
    /**
     * Attaches the processing element: the router pulls injection
     * flits straight from @p nic's source queue and hands it every
     * ejected flit.
     */
    NOC_PHASE_FN(setup) void setNic(Nic *nic);
    /** Attaches the network-wide flit lifecycle counters (may be null). */
    void setLedger(FlitLedger *ledger) { ledger_ = ledger; }
    /**
     * Attaches the trace recorder (null: tracing off). Each pipeline
     * hook tests obs_ and records only while one is attached (see
     * obs/obs.h).
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
     * flits are buffered here, the NIC has injection pending, or a flit
     * or credit is in flight toward this router. The idle-skip engine
     * clears a router's active flag only when this is false. Reads only
     * this router's own slot words, never a link.
     */
    bool
    hasLocalWork() const
    {
        if (workItems_ != 0 || nicHasPending())
            return true;
        std::uint32_t any = 0;
        for (int d = 0; d < kNumCardinal; ++d)
            any |= pendFlitIn_[d].load(std::memory_order_relaxed);
        // A slot's second credit mask is a subset of its first.
        const int slots = creditClock_.slots();
        for (int s = 0; s < slots; ++s) {
            for (int d = 0; d < kNumCardinal; ++d)
                any |= pendCreditIn_[s][d][0].load(std::memory_order_relaxed);
        }
        return any != 0;
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
     * race checker in par/race_check.h).
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
     * Flits in flight toward this router on port @p d, by the input
     * slot they name on the wire (ejecting flits carry vc 0xFF and are
     * skipped). @p flits is resized to outputSlotCount().
     */
    void countFlitsIn(Direction d, std::vector<int> &flits) const;

    /**
     * Credits in flight toward this router on port @p d, by output
     * slot. @p credits is resized to outputSlotCount().
     */
    void countCreditsIn(Direction d, std::vector<int> &credits) const;

    /** Flits in flight toward this router on all ports. */
    int
    flitsInbound() const
    {
        int n = 0;
        for (const auto &occ : pendFlitIn_)
            n += std::popcount(occ.load(std::memory_order_relaxed));
        return n;
    }

    /**
     * Testing hook: leaks one credit from output VC (@p d, @p slot) so
     * the credit-conservation invariant has something to catch.
     */
    void debugCorruptCredit(Direction d, int slot);

    /** The stage bits the pipeline keeps (router/pipeline.h). */
    virtual StageMasks stageMasks() const = 0;
    /** The stage bits recomputed from VC state (the mask audit). */
    StageMasks stageMasksFromState() const;
    /**
     * Testing hook: flips input VC @p idx's bit in @p mask so the mask
     * audit has something to catch.
     */
    virtual void debugCorruptStageMask(std::uint64_t StageMasks::*mask,
                                       int idx) = 0;

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

    /**
     * The stage rule (DESIGN §6): the stage in_[@p idx] can act in,
     * from its state alone. A buffered flit always belongs to the
     * front packet, because a VC takes a new head only after the
     * previous tail.
     */
    VcStage
    stageOf(int idx) const
    {
        const InputVc &ivc = in_[static_cast<size_t>(idx)];
        if (ivc.ctl.empty() || ivc.buf.empty())
            return VcStage::Idle;
        const PacketCtl &ctl = ivc.ctl.front();
        switch (ctl.stage) {
          case PacketCtl::Stage::VaWait: return VcStage::VaWait;
          case PacketCtl::Stage::Drop: return VcStage::Drain;
          case PacketCtl::Stage::Active: break;
        }
        // Early ejection and the generic router's PE need no credit.
        return ctl.outSlot == kEjectSlot || ctl.outDir == Direction::Local ||
                       outputVc(ctl.outDir, ctl.outSlot).credits > 0
                   ? VcStage::SaReady
                   : VcStage::Idle;
    }

    /**
     * Writes @p f into the arrival slot of the link behind @p d, marks
     * the slot in the downstream router's pendFlitIn_, wakes it and
     * counts the link traversal.
     */
    NOC_PHASE_FN(send)
    void
    sendFlit(Direction d, const Flit &f, Cycle now)
    {
        const int di = static_cast<int>(d);
        Router *nb = neighbors_[di];
        NOC_ASSERT(nb && ports_[di].flitOut, "sendFlit on missing port");
        putFlit(ports_[di].flitOut, flitClock_,
                nb->pendFlitIn_[static_cast<int>(opposite(d))], f, now);
        if (auto *w = wake_[di])
            w->store(1, std::memory_order_relaxed);
        ++act_.linkTraversals;
    }

    /**
     * Returns a credit for VC id @p vcId to the upstream on @p inDir: a
     * VC bit in the upstream router's pendCreditIn_ masks of the slot
     * due creditDelay cycles from now.
     */
    NOC_PHASE_FN(send)
    void
    sendCredit(Direction inDir, std::uint8_t vcId, Cycle now)
    {
        const int di = static_cast<int>(inDir);
        Router *nb = neighbors_[di];
        NOC_ASSERT(nb, "sendCredit on missing port");
        postCredit(nb->pendCreditIn_[creditClock_.sendSlot(now)]
                                    [static_cast<int>(opposite(inDir))],
                   vcId);
        if (auto *w = wake_[di])
            w->store(1, std::memory_order_relaxed);
    }

    /**
     * Applies every credit due during @p now, calling @p apply(dir, vc)
     * once per credit, and empties the due slot's masks. All four
     * ports' masks of one slot share a cache line of this router.
     */
    template <typename ApplyFn>
    NOC_PHASE_FN(recv)
    void
    receiveCredits(Cycle now, ApplyFn &&apply)
    {
        auto &due = pendCreditIn_[creditClock_.dueSlot(now)];
        for (int d = 0; d < kNumCardinal; ++d) {
            takeCredits(due[d], [&](unsigned vc) {
                apply(static_cast<Direction>(d), vc);
            });
        }
    }

    /**
     * Zero-copy receive: the flit due during @p now on cardinal port
     * index @p d, or nullptr. Gated on this router's slot bits, so an
     * idle link is never touched. The pointee stays valid for the rest
     * of this cycle; consumeFlitFrom() must run in the same cycle.
     */
    NOC_PHASE_FN(recv)
    const Flit *
    peekFlitFrom(int d, Cycle now) const
    {
        return dueFlit(ports_[d].flitIn, flitClock_, pendFlitIn_[d], now);
    }

    /** Consumes the flit peekFlitFrom(@p d, @p now) returned. */
    NOC_PHASE_FN(recv)
    void
    consumeFlitFrom(int d, Cycle now)
    {
        takeFlit(flitClock_, pendFlitIn_[d], now);
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
     * True when @p head can never leave this router: its destination
     * is off-line, or every minimal next hop is a dead node (a packet
     * at its destination is never blocked).
     */
    bool nextHopsDead(const Flit &head) const;

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

    // --- injection side of the NIC ------------------------------------

    /** True when the source queue has a flit ready to inject. */
    bool nicHasPending() const { return !srcQueue_->empty(); }

    /** Front of the source queue; only valid when nicHasPending(). */
    const Flit &nicPeekPending() const { return srcQueue_->front(); }

    /** Removes and returns the front of the source queue. */
    Flit // noc-lint:allow(flit-copy) injection hand-off out of the ring
    nicPopPending()
    {
        return srcQueue_->pop_front();
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
    Nic *nic_ = nullptr;
    FlitLedger *ledger_ = nullptr; ///< may be null (standalone tests)
    obs::Recorder *obs_ = nullptr; ///< may be null (tracing off)
    ActivityCounters act_;

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
    /** nic_'s source queue, bound by setNic(). */
    GrowRing<Flit> *srcQueue_ = nullptr;
    /** Flits buffered in this router's input VCs (incremental). */
    int workItems_ = 0;
    SlotClock flitClock_;   ///< slots of every flit link (hopDelay)
    SlotClock creditClock_; ///< slots of every credit link (creditDelay)
    std::vector<OutputVc> outVc_; ///< [dir * slotsPerDir_ + slot]
    int slotsPerDir_ = 0;
    int outVcDepth_ = 0; ///< credits a quiescent slot holds
    RatioStat rowContention_;
    RatioStat colContention_;
    /** routing_.kind(), resolved once (it is consulted per step). */
    RoutingKind routingKind_;

    /**
     * Receiver-held occupancy of the incoming links (topology/channel.h),
     * the only record of what is in flight toward this router, so
     * hasLocalWork() and the receive loops read this router's own
     * cache lines instead of polling links. pendFlitIn_[d] has bit s
     * set while slot s of the flit link on port d holds a flit.
     * pendCreditIn_[s][d] is the pair of VC masks of arrival slot s of
     * the credit link on port d. The sender sets bits in sendFlit /
     * sendCredit; this router clears them when it consumes the slot.
     * The pentachromatic distance-2 phase schedule serialises every
     * access — all senders into a node sit in phases distinct from
     * each other and from the node itself — so relaxed load/store
     * (never RMW) suffices; the atomic type keeps the cross-shard
     * handoff tsan-clean.
     *
     * Ordering argument, spelled out: within one phase each word has
     * exactly one live accessor (the words are per incoming direction,
     * so two senders into the same node never share one), which makes
     * every access single-threaded-sequenced; across phases the shard
     * engine's progress hand-off between bordering shards' boundary
     * steps provides the release/acquire edge, so relaxed suffices and
     * no fence is needed here. The race checker, when attached,
     * re-verifies the single-accessor claim every superstep (see
     * par/race_check.h).
     */
    NOC_SHARED_ATOMIC(recv, send)
    std::atomic<std::uint8_t> pendFlitIn_[kNumCardinal] = {};
    NOC_SHARED_ATOMIC(recv, send)
    alignas(64) std::atomic<std::uint32_t>
        pendCreditIn_[kMaxLinkSlots][kNumCardinal][2] = {};
};

} // namespace noc

#endif // ROCOSIM_ROUTER_ROUTER_H_
