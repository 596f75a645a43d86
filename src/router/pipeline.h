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
 * virtual call a router makes per cycle.
 *
 * Required hooks on @p Arch (friends may keep them private):
 *   void beginCycle(Cycle now)                  per-cycle resets
 *   bool injectionBlocked(const Flit &head)     source discard (faults
 *                                               are present when called)
 *   int  injectionVc(const Flit &head, Direction &lookahead)
 *                                               in_ index for a new
 *                                               packet, or -1 to stall
 *   VaPick requestVc(const PacketCtl &, const Flit &head, VaRequest &)
 *                                               VA candidate slot
 *   void allocateSwitch(Cycle now)              the switch allocator
 * Defaulted hooks an architecture may shadow:
 *   latchHead, outSlot, forward, onVaGrant (see below).
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
        receiveCredits(now, [this](Direction d, unsigned vcId) {
            OutputVc &o = outputVc(d, static_cast<int>(vcId));
            ++o.credits;
            --o.outstanding;
            NOC_ASSERT(o.credits <= depth_, "credit overflow");
            NOC_ASSERT(o.outstanding >= 0, "credit without a send");
        });
        receiveFlits(now);
        pullInjection(now);
        drainDropped(now);
        allocateVcs(now);
        self().allocateSwitch(now);
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
        int inIdx;
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
        vaReqs_.reserve(in_.size());
        vaMasks_.assign(static_cast<size_t>(keys), 0);
    }

    // --- defaulted hooks --------------------------------------------

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
        NOC_OBS(if (obs_) obs_->record(
                    obs::Stage::SwitchTraverse, f, id(), now,
                    static_cast<int>(moduleOf(outDir)), f.vc));
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
     * output VC.
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
        // Links consume a downstream credit; the PE behind a generic
        // router's Local output sinks every flit and never returns one.
        if (ctl.outSlot != kEjectSlot && outDir != Direction::Local) {
            OutputVc &ov = self().outSlot(outDir, ctl.outSlot);
            --ov.credits;
            ++ov.outstanding;
        }

        // Return the freed buffer slot upstream (not for injection).
        if (ctl.srcDir != Direction::Local) {
            sendCredit(ctl.srcDir,
                       static_cast<std::uint8_t>(wireSlot(idx, ctl.srcDir)),
                       now);
        }

        if (tail) {
            if (ctl.outSlot != kEjectSlot) {
                OutputVc &o = self().outSlot(outDir, ctl.outSlot);
                o.busy = false;
                o.ownerPacket = 0;
            }
            ivc.ctl.pop_front();
            if (ivc.ctl.empty())
                ctlMask_ &= ~(1ull << idx);
        }
    }

    /**
     * Bit i set iff in_[i].ctl is non-empty. The allocation, drain and
     * injection scans walk set bits instead of every VC — at low load
     * a router holds one or two packets, so the scans shrink to the
     * VCs that can actually act.
     */
    NOC_OWNED_STATE(recv, send)
    std::uint64_t ctlMask_ = 0;

  private:
    Arch &self() { return static_cast<Arch &>(*this); }

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
                NOC_OBS(if (obs_)
                            obs_->record(obs::Stage::EarlyEject, ej, id(),
                                         now));
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
            NOC_OBS(if (obs_ && !draining)
                        obs_->record(obs::Stage::Drop, f, id(), now));
            droppingPacket_ = isTail(f.type) ? 0 : f.packetId;
            return;
        }

        int target = -1;
        Direction la = front.lookahead;
        if (isHead(front.type)) {
            target = self().injectionVc(front, la);
        } else {
            // Body/tail flits follow their packet's injection VC.
            for (std::uint64_t scan = ctlMask_; scan && target < 0;
                 scan &= scan - 1) {
                const int i = std::countr_zero(scan);
                const PacketCtl &back = in_[static_cast<size_t>(i)].ctl.back();
                if (back.owner == front.packetId &&
                    back.srcDir == Direction::Local) {
                    target = i;
                    la = back.outDir;
                }
            }
            NOC_ASSERT(target >= 0, "body flit lost its injection VC");
        }
        if (target < 0 || in_[static_cast<size_t>(target)].buf.full())
            return; // injection stalls this cycle

        Flit f = nicPopPending(); // noc-lint:allow(flit-copy) per-hop copy at injection
        f.lookahead = la;
        f.vc = static_cast<std::uint8_t>(wireSlot(target, Direction::Local));
        bufferFlit(target, f, Direction::Local, now);
    }

    /** Buffer-write bookkeeping shared by link arrivals and injection. */
    NOC_PHASE_FN(recv)
    void
    bufferFlit(int idx, const Flit &f, Direction srcDir, Cycle now)
    {
        InputVc &ivc = in_[static_cast<size_t>(idx)];
        ++act_.bufferWrites;
        NOC_OBS(if (obs_) obs_->record(obs::Stage::BufferWrite, f, id(), now,
                                       moduleOfVc(idx), idx));
        order_[static_cast<size_t>(idx)].onFlit(f, now, id(), srcDir,
                                                idx % numVcs_);
        if (isHead(f.type)) {
            PacketCtl ctl;
            ctl.owner = f.packetId;
            ctl.srcDir = srcDir;
            self().latchHead(ctl, f, idx, now);
            ++act_.rcComputations; // RC as the head is latched (stage 1)
            if (ctl.stage == PacketCtl::Stage::Drop)
                ++dropPending_;
            ivc.ctl.push_back(ctl);
            ctlMask_ |= 1ull << idx;
        }
        NOC_ASSERT(!ivc.ctl.empty() && ivc.ctl.back().owner == f.packetId,
                   "flit interleaving within a VC");
        ivc.occupantLink = srcDir;
        ivc.buf.push(f);
        noteFlitBuffered();
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
        if (dropPending_ == 0)
            return;
        for (std::uint64_t scan = ctlMask_; scan; scan &= scan - 1) {
            const int i = std::countr_zero(scan);
            InputVc &ivc = in_[static_cast<size_t>(i)];
            const PacketCtl &ctl = ivc.ctl.front();
            if (ctl.stage != PacketCtl::Stage::Drop)
                continue;
            if (ivc.buf.empty() || ivc.buf.front().packetId != ctl.owner)
                continue;
            const Flit &f = ivc.buf.front();
            const bool tail = isTail(f.type);
            const std::uint64_t packetId = f.packetId;
            retireFlit(f, now);
            NOC_OBS(if (obs_ && isHead(f.type))
                        obs_->record(obs::Stage::Drop, f, id(), now,
                                     moduleOfVc(i), i));
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
                if (ivc.ctl.empty())
                    ctlMask_ &= ~(1ull << i);
                --dropPending_;
            }
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
        std::vector<VaRequest> &reqs = vaReqs_;
        std::vector<std::uint64_t> &masks = vaMasks_;
        reqs.clear();
        const int slots = outputSlots();

        for (std::uint64_t scan = ctlMask_; scan; scan &= scan - 1) {
            const int i = std::countr_zero(scan);
            InputVc &ivc = in_[static_cast<size_t>(i)];
            if (!ivc.headWaiting(now))
                continue;
            PacketCtl &ctl = ivc.ctl.front();
            VaRequest r{i, Direction::Invalid, -1, Direction::Invalid};
            switch (self().requestVc(ctl, ivc.buf.front(), r)) {
              case VaPick::Wait:
                break;
              case VaPick::Drop:
                ctl.stage = PacketCtl::Stage::Drop;
                ++dropPending_;
                break;
              case VaPick::Request:
                masks[static_cast<size_t>(static_cast<int>(r.dir)) * slots +
                      r.slot] |= 1ull << i;
                reqs.push_back(r);
                break;
            }
        }
        if (reqs.empty())
            return;

        // Index requests by input VC so a grant applies the *winner's*
        // own request (its slot and its look-ahead choice).
        int reqOf[64];
        for (auto &x : reqOf)
            x = -1;
        for (int ri = 0; ri < static_cast<int>(reqs.size()); ++ri)
            reqOf[reqs[static_cast<size_t>(ri)].inIdx] = ri;

        for (const VaRequest &r0 : reqs) {
            const size_t key =
                static_cast<size_t>(static_cast<int>(r0.dir)) * slots +
                r0.slot;
            if (masks[key] == 0)
                continue; // this output VC already granted this cycle
            ++act_.vaGlobalArbs;
            const int winner = vaArb_[key].arbitrate(masks[key]);
            NOC_ASSERT(winner >= 0 && reqOf[winner] >= 0,
                       "VA arbiter returned no winner");
            masks[key] = 0;
            const VaRequest &r = reqs[static_cast<size_t>(reqOf[winner])];

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
            o.ownerPacket = ctl.owner;
            ctl.outDir = r.dir;
            ctl.outSlot = r.slot;
            ctl.nextLa = r.nextLa; // commit the adaptive look-ahead choice
            ctl.stage = PacketCtl::Stage::Active;
            ctl.vaGrantCycle = now;
            NOC_OBS(if (obs_ && !ivc.buf.empty() &&
                        ivc.buf.front().packetId == ctl.owner)
                        obs_->record(obs::Stage::VaGrant, ivc.buf.front(),
                                     id(), now, moduleOfVc(winner), winner));
            self().onVaGrant(r);
        }
    }

    NOC_OWNED_STATE(recv)
    std::uint64_t droppingPacket_ = 0; ///< source packet being discarded
    /**
     * Packets in Drop stage across all input VCs. drainDropped() scans
     * the occupied VCs; fault-free runs (the common case) skip it
     * entirely.
     */
    NOC_OWNED_STATE(recv, alloc)
    int dropPending_ = 0;
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
