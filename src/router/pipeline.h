/**
 * @file
 * The router skeleton (DESIGN §6): the one two-stage pipeline that the
 * generic, Path-Sensitive and RoCo routers share, written once.
 *
 * Each cycle step() runs, in order: the architecture's per-cycle reset,
 * credit receive, link receive (with early ejection), injection pull,
 * the drain of discarded packets, separable VC allocation and the
 * architecture's switch allocator, whose grants commit through
 * commitTraversal(). Everything an architecture may vary is a hook on
 * @p Arch, resolved at compile time (CRTP), so step() is the only
 * virtual call a router makes per cycle. The drain, VA and SA walk the
 * stage bits of the VCs that can act in them (stage_), never every VC.
 *
 * Required hooks on @p Arch (friends may keep them private):
 *   void beginCycle(Cycle now)                  per-cycle resets
 *   int  injectionVc(const Flit &head, Direction &lookahead)
 *                                               in_ index for a new
 *                                               packet, or -1 to stall
 *   VaPick requestVc(const PacketCtl &, const Flit &head, VaRequest &)
 *                                               VA candidate slot
 *   void allocateSwitch(Cycle now)              the switch allocator
 * Defaulted hooks an architecture may shadow:
 *   injectionBlocked, latchHead, outSlot, forward, onVaGrant (see
 *   below).
 * Which VC a head may claim, at injection and in VA, is not a hook:
 * every architecture asks check/slot_rules.h, the rule the deadlock
 * prover and the liveness model check.
 */
#ifndef ROCOSIM_ROUTER_PIPELINE_H_
#define ROCOSIM_ROUTER_PIPELINE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "check/invariant.h"
#include "obs/recorder.h"
#include "router/arbiter.h"
#include "router/router.h"
#include "sim/nic.h"

namespace noc {

template <class Arch>
class RouterPipeline : public Router
{
  public:
    NOC_PHASE_FN(step)
    void
    step(Cycle now) final
    {
        if (nodeDead())
            return; // off-line: no receive, no credits, full backpressure

        self().beginCycle(now);
        applyCredits(now);
        receiveFlits(now);
        pullInjection(now);
        drainDropped(now);
        allocateVcs(now);
        self().allocateSwitch(now);
    }

    StageMasks stageMasks() const final { return stage_; }

    void
    debugCorruptStageMask(std::uint64_t StageMasks::*mask, int idx) final
    {
        stage_.*mask ^= 1ull << idx;
    }

  protected:
    /** Outcome of an architecture's VA candidate choice for one head. */
    enum class VaPick : std::uint8_t {
        Wait,    ///< nothing grantable this cycle
        Request, ///< the VaRequest names the wanted output VC
        Drop,    ///< statically blocked: discard the packet
    };

    /** One input VC's request in a VA round (scratch, see vaReqs_). */
    struct VaRequest {
        Direction dir;    ///< output at this router
        int slot;         ///< downstream VC slot
        Direction nextLa; ///< output at the next router
    };

    RouterPipeline(NodeId id, const SimConfig &cfg, const MeshTopology &topo,
                   const RoutingAlgorithm &routing, const FaultMap *faults,
                   const VcLayout &layout)
        : Router(id, cfg, topo, routing, faults)
    {
        NOC_ASSERT(layout.inputVcs <= 64,
                   "input VCs index 64-bit request masks");
        initInputVcs(layout);
        order_.resize(in_.size());
        // One VA arbiter per (output port, downstream slot), each
        // choosing among all input VCs.
        const int keys = kNumPorts * outputSlots();
        vaArb_.reserve(static_cast<size_t>(keys));
        for (int i = 0; i < keys; ++i)
            vaArb_.emplace_back(layout.inputVcs);
        vaReqs_.resize(in_.size());
        vaMasks_.assign(static_cast<size_t>(keys), 0);
    }

    // --- defaulted hooks --------------------------------------------

    /**
     * Source discard, asked for each head at the NIC while faults are
     * present. Default: every minimal next hop is a dead node.
     */
    bool
    injectionBlocked(const Flit &head) const
    {
        return nextHopsDead(head);
    }

    /**
     * Head-latch route policy, run as a packet's head is written into
     * input VC @p idx (stage 1 RC). Default: nothing to precompute (the
     * generic router routes at VC allocation). Setting @c ctl.stage to
     * Drop discards the packet.
     */
    void latchHead(PacketCtl &, const Flit &, int, Cycle) {}

    /** Upstream credit state of output VC (@p d, @p slot). */
    OutputVc &outSlot(Direction d, int slot) { return outputVc(d, slot); }

    /**
     * Switch traversal toward @p outDir: rewrites the head slot's wire
     * fields in place and sends it down the link (look-ahead and
     * downstream VC, or 0xFF for an early-ejecting flit).
     */
    NOC_PHASE_FN(send)
    void
    forward(Direction outDir, const PacketCtl &ctl, Flit &f, Cycle now)
    {
        f.lookahead = ctl.nextLa;
        f.vc = ctl.outSlot == kEjectSlot
                   ? 0xFF
                   : static_cast<std::uint8_t>(ctl.outSlot);
        sendFlit(outDir, f, now);
        if (obs_)
            obs_->record(obs::Stage::SwitchTraverse, f, id(), now,
                         static_cast<int>(moduleOf(outDir)), f.vc);
    }

    /** Called once per VA grant, after the output VC is claimed. */
    void onVaGrant(const VaRequest &) {}

    // --- shared stages -----------------------------------------------

    /**
     * Switch traversal of the head flit of input VC @p idx toward
     * @p outDir, once the architecture's switch allocator granted it
     * (crossbar bookkeeping stays with the caller): the flit leaves
     * straight from its buffer slot, downstream credit is consumed,
     * the freed slot's credit returns upstream and a tail releases the
     * output VC and brings the next packet to the front.
     */
    NOC_PHASE_FN(send)
    void
    commitTraversal(int idx, Direction outDir, Cycle now)
    {
        InputVc &ivc = in_[static_cast<size_t>(idx)];
        const PacketCtl &ctl = ivc.ctl.front();
        // Rewrite the head slot in place and send straight from the
        // buffer: the only surviving copy is the write into the link's
        // arrival slot.
        Flit &f = ivc.buf.front();
        NOC_ASSERT(f.packetId == ctl.owner, "VC FIFO out of sync");
        NOC_ASSERT(outDir == ctl.outDir, "grant/output mismatch");
        ++act_.bufferReads;
        ++act_.crossbarTraversals;
        ++f.hops;

        self().forward(outDir, ctl, f, now);
        const bool tail = isTail(f.type);
        ivc.buf.drop();
        noteFlitUnbuffered();
        bool stalled = ivc.buf.empty(); // the next flit is still upstream
        // Links consume a downstream credit; the PE behind a generic
        // router's Local output sinks every flit and never returns one.
        if (ctl.outSlot != kEjectSlot && outDir != Direction::Local) {
            OutputVc &ov = self().outSlot(outDir, ctl.outSlot);
            --ov.credits;
            ++ov.outstanding;
            stalled = stalled || ov.credits == 0;
        }

        // Return the freed buffer slot upstream (not for injection).
        if (ctl.srcDir != Direction::Local) {
            sendCredit(ctl.srcDir,
                       static_cast<std::uint8_t>(wireSlot(idx, ctl.srcDir)),
                       now);
        }

        if (tail) {
            if (ctl.outSlot != kEjectSlot)
                self().outSlot(outDir, ctl.outSlot).busy = false;
            ivc.ctl.pop_front();
            classify(idx);
        } else if (stalled) {
            stage_.saReady &= ~(1ull << idx); // until a flit or credit
        }
    }

    /**
     * Which input VCs can act in VA, SA and the drain now: a cache of
     * Router::stageOf, updated only at the events that change it. A
     * new front packet, a flit landing in an empty buffer, a drained
     * flit and a VA grant or Drop verdict re-run the rule (classify);
     * the frequent events flip one bit: a sent flit that empties the
     * buffer or spends the last credit, and a credit back for a busy
     * output VC. Network::checkProtocolInvariants audits the cache.
     */
    NOC_OWNED_STATE(recv, alloc, send)
    StageMasks stage_;
    /**
     * The VCs that won VA in this cycle's allocateVcs(). Their heads
     * are still at the buffer front when SA runs, so their switch
     * requests are *speculative* (stage 1 runs RC|VA|SA in parallel)
     * and yield to committed requests — the paper's arbitration-depth
     * argument: high-contention routers waste their speculative
     * grants, low-contention ones keep them.
     */
    NOC_OWNED_STATE(alloc)
    std::uint64_t vaWon_ = 0;

  private:
    Arch &self() { return static_cast<Arch &>(*this); }

    /** Re-derives in_[@p idx]'s stage bits from its state. */
    NOC_PHASE_FN(recv)
    void classify(int idx) { stage_.set(idx, stageOf(idx)); }

    /**
     * Credit receive. A credit that lifts a busy output VC off zero
     * makes its owner, the front packet of input VC ownerIn, ready for
     * SA again if it has a flit buffered.
     */
    NOC_PHASE_FN(recv)
    void
    applyCredits(Cycle now)
    {
        receiveCredits(now, [this](Direction d, unsigned vcId) {
            OutputVc &o = outputVc(d, static_cast<int>(vcId));
            ++o.credits;
            --o.outstanding;
            NOC_ASSERT(o.credits <= depth_, "credit overflow");
            NOC_ASSERT(o.outstanding >= 0, "credit without a send");
            if (o.busy && o.credits == 1 &&
                !in_[static_cast<size_t>(o.ownerIn)].buf.empty())
                stage_.saReady |= 1ull << o.ownerIn;
        });
    }

    /**
     * Link receive: a flit whose look-ahead is Local ejects straight
     * off the demux to the PE (early ejection, Path-Sensitive / RoCo);
     * every other flit is written into the input VC its wire slot names.
     */
    NOC_PHASE_FN(recv)
    void
    receiveFlits(Cycle now)
    {
        for (int d = 0; d < kNumCardinal; ++d) {
            const Flit *f = peekFlitFrom(d, now);
            if (!f)
                continue;
            const Direction dir = static_cast<Direction>(d);
            if (f->lookahead == Direction::Local) {
                NOC_ASSERT(f->dst == id(), "early ejection at wrong node");
                ++act_.earlyEjections;
                Flit ej = *f; // noc-lint:allow(flit-copy) ejection copy to the local port
                consumeFlitFrom(d, now);
                ++ej.hops;
                if (obs_)
                    obs_->record(obs::Stage::EarlyEject, ej, id(), now);
                nic_->deliverFlit(ej, now);
                continue;
            }
            bufferFlit(inIndex(dir, f->vc), *f, dir, now);
            consumeFlitFrom(d, now);
        }
    }

    /**
     * Pulls at most one flit from the NIC's source queue. Packets the
     * architecture finds statically blocked are discarded here; a new
     * packet's head claims the injection VC the architecture picks and
     * body/tail flits follow it.
     */
    NOC_PHASE_FN(recv)
    void
    pullInjection(Cycle now)
    {
        if (!nicHasPending())
            return;
        const Flit &front = nicPeekPending();

        // Discard packets that can never leave the source (fault-blocked).
        const bool draining = front.packetId == droppingPacket_;
        if (draining || (faults_ && isHead(front.type) &&
                         self().injectionBlocked(front))) {
            Flit f = nicPopPending(); // noc-lint:allow(flit-copy) source-drop retire
            retireFlit(f, now);
            if (obs_ && !draining)
                obs_->record(obs::Stage::Drop, f, id(), now);
            droppingPacket_ = isTail(f.type) ? 0 : f.packetId;
            return;
        }

        int target = injVc_;
        Direction la = front.lookahead;
        if (isHead(front.type)) {
            target = self().injectionVc(front, la);
        } else {
            // Body/tail flits follow their packet's injection VC.
            const PacketCtl &back =
                in_[static_cast<size_t>(target)].ctl.back();
            NOC_ASSERT(back.owner == front.packetId,
                       "body flit lost its injection VC");
            la = back.outDir;
        }
        if (target < 0 || in_[static_cast<size_t>(target)].buf.full())
            return; // injection stalls this cycle

        Flit f = nicPopPending(); // noc-lint:allow(flit-copy) per-hop copy at injection
        f.lookahead = la;
        f.vc = static_cast<std::uint8_t>(wireSlot(target, Direction::Local));
        bufferFlit(target, f, Direction::Local, now);
        injVc_ = target;
    }

    /** Buffer-write bookkeeping shared by link arrivals and injection. */
    NOC_PHASE_FN(recv)
    void
    bufferFlit(int idx, const Flit &f, Direction srcDir, Cycle now)
    {
        InputVc &ivc = in_[static_cast<size_t>(idx)];
        ++act_.bufferWrites;
        if (obs_)
            obs_->record(obs::Stage::BufferWrite, f, id(), now,
                         moduleOfVc(idx), idx);
        order_[static_cast<size_t>(idx)].onFlit(f, now, id(), srcDir,
                                                idx % numVcs_);
        if (isHead(f.type)) {
            PacketCtl ctl;
            ctl.owner = f.packetId;
            ctl.srcDir = srcDir;
            self().latchHead(ctl, f, idx, now);
            ++act_.rcComputations; // RC as the head is latched (stage 1)
            ivc.ctl.push_back(ctl);
        }
        NOC_ASSERT(!ivc.ctl.empty() && ivc.ctl.back().owner == f.packetId,
                   "flit interleaving within a VC");
        ivc.occupantLink = srcDir;
        const bool wasEmpty = ivc.buf.empty();
        ivc.buf.push(f);
        noteFlitBuffered();
        // Only a flit that lands at the buffer front can change a stage.
        if (wasEmpty)
            classify(idx);
        // The reservation handshake releases the slot once the tail is
        // safely buffered; the next upstream sees the true occupancy.
        if (isTail(f.type) && ivc.reservedPacket == f.packetId) {
            ivc.reservedFrom = Direction::Invalid;
            ivc.reservedPacket = 0;
        }
    }

    /**
     * Drains discarded (fault-blocked) packets, one flit per VC per
     * cycle, freeing their buffer slots and returning upstream credits
     * like a normal traversal.
     */
    NOC_PHASE_FN(recv)
    void
    drainDropped(Cycle now)
    {
        for (std::uint64_t scan = stage_.drainReady; scan; scan &= scan - 1) {
            const int i = std::countr_zero(scan);
            InputVc &ivc = in_[static_cast<size_t>(i)];
            const PacketCtl &ctl = ivc.ctl.front();
            const Flit &f = ivc.buf.front();
            const bool tail = isTail(f.type);
            const std::uint64_t packetId = f.packetId;
            retireFlit(f, now);
            if (obs_ && isHead(f.type))
                obs_->record(obs::Stage::Drop, f, id(), now, moduleOfVc(i),
                             i);
            ivc.buf.drop();
            noteFlitUnbuffered();
            if (ctl.srcDir != Direction::Local) {
                sendCredit(ctl.srcDir,
                           static_cast<std::uint8_t>(wireSlot(i, ctl.srcDir)),
                           now);
            }
            if (tail) {
                if (ivc.reservedPacket == packetId) {
                    ivc.reservedFrom = Direction::Invalid;
                    ivc.reservedPacket = 0;
                }
                ivc.ctl.pop_front();
            }
            classify(i);
        }
    }

    /**
     * Separable VC allocation: every waiting head requests the one
     * output VC its architecture picks, then each contested output VC
     * arbitrates among its requesters. Pooled layouts claim the
     * downstream slot over the reservation handshake.
     */
    NOC_PHASE_FN(alloc)
    void
    allocateVcs(Cycle now)
    {
        // Request mask per output VC: key = dir * outputSlots() + slot.
        // Both scratch buffers are members (vaMasks_ re-zeroes itself:
        // every set key is cleared when its arbitration below fires).
        std::vector<VaRequest> &reqs = vaReqs_; // by input VC
        std::vector<std::uint64_t> &masks = vaMasks_;
        std::uint64_t requested = 0;
        vaWon_ = 0;
        const int slots = outputSlots();

        for (std::uint64_t scan = stage_.vaWait; scan; scan &= scan - 1) {
            const int i = std::countr_zero(scan);
            InputVc &ivc = in_[static_cast<size_t>(i)];
            PacketCtl &ctl = ivc.ctl.front();
            if (now < ctl.vaEligible)
                continue; // a faulty RC unit's double-routing cycle
            VaRequest r{Direction::Invalid, -1, Direction::Invalid};
            switch (self().requestVc(ctl, ivc.buf.front(), r)) {
              case VaPick::Wait:
                break;
              case VaPick::Drop:
                // The drain starts with the next cycle's drainDropped().
                ctl.stage = PacketCtl::Stage::Drop;
                classify(i);
                break;
              case VaPick::Request:
                masks[static_cast<size_t>(static_cast<int>(r.dir)) * slots +
                      r.slot] |= 1ull << i;
                reqs[static_cast<size_t>(i)] = r;
                requested |= 1ull << i;
                break;
            }
        }

        // Each requested output VC arbitrates once, in the order of its
        // first requester; a grant applies the *winner's* own request
        // (its slot and its look-ahead choice).
        for (; requested; requested &= requested - 1) {
            const VaRequest &r0 =
                reqs[static_cast<size_t>(std::countr_zero(requested))];
            const size_t key =
                static_cast<size_t>(static_cast<int>(r0.dir)) * slots +
                r0.slot;
            if (masks[key] == 0)
                continue; // this output VC already granted this cycle
            ++act_.vaGlobalArbs;
            const int winner = vaArb_[key].arbitrate(masks[key]);
            NOC_ASSERT(winner >= 0, "VA arbiter returned no winner");
            masks[key] = 0;
            const VaRequest &r = reqs[static_cast<size_t>(winner)];

            InputVc &ivc = in_[static_cast<size_t>(winner)];
            PacketCtl &ctl = ivc.ctl.front();
            OutputVc &o = self().outSlot(r.dir, r.slot);
            NOC_ASSERT(!o.busy, "VA granted a busy output VC");
            if (pooledSlots()) {
                Router *down = neighbor(r.dir);
                int freeSpace = 0;
                const bool ok = down->reserveInputVc(
                    r.slot, opposite(r.dir), ctl.owner, false, freeSpace);
                NOC_ASSERT(ok, "reservation vanished between probe and grant");
            }
            o.busy = true;
            o.ownerIn = winner;
            ctl.outDir = r.dir;
            ctl.outSlot = r.slot;
            ctl.nextLa = r.nextLa; // commit the adaptive look-ahead choice
            ctl.stage = PacketCtl::Stage::Active;
            classify(winner);
            vaWon_ |= 1ull << winner;
            if (obs_)
                obs_->record(obs::Stage::VaGrant, ivc.buf.front(), id(),
                             now, moduleOfVc(winner), winner);
            self().onVaGrant(r);
        }
    }

    NOC_OWNED_STATE(recv)
    std::uint64_t droppingPacket_ = 0; ///< source packet being discarded
    /** in_ index of the last injected packet, which its body follows. */
    NOC_OWNED_STATE(recv)
    int injVc_ = -1;
    /** Wormhole-order invariant trackers, one per input VC. */
    std::vector<check::WormholeOrderTracker> order_;

    /**
     * Per-cycle VA scratch buffers, hoisted out of allocateVcs(): the
     * allocation round runs every cycle on every router, so rebuilding
     * these vectors on the stack dominated the heap traffic of a run.
     */
    std::vector<VaRequest> vaReqs_;
    std::vector<std::uint64_t> vaMasks_; ///< [dir * outputSlots() + slot]
    std::vector<RoundRobinArbiter> vaArb_; ///< per (output, slot) key
};

} // namespace noc

#endif // ROCOSIM_ROUTER_PIPELINE_H_
