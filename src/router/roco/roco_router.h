/**
 * @file
 * The Row-Column (RoCo) Decoupled Router — the paper's contribution
 * (Section 3, Figure 1b).
 *
 * Two fully independent modules, each with a 2x2 crossbar:
 *   Row module    - East/West outputs
 *   Column module - North/South outputs
 * Twelve VCs in four path sets (Table 1), filled by Guided Flit
 * Queuing: the input demux classifies each arriving flit by its
 * look-ahead output dimension and steers it to the right module/port.
 * Flits destined for the local PE are ejected right after the demux
 * (Early Ejection) — they consume no VC, no switch allocation and no
 * crossbar traversal, saving two cycles at the destination.
 *
 * Switch allocation uses the Mirroring Effect (mirror_allocator.h).
 * Look-ahead routing computes each flit's output port one hop ahead.
 *
 * Fault behaviour implements Section 4's hardware recycling: RC faults
 * cost one cycle of double routing, buffer faults retire single VCs,
 * SA faults borrow idle VA arbiters, and VA/crossbar/mux faults
 * isolate one module while the other keeps serving its dimension.
 */
#ifndef ROCOSIM_ROUTER_ROCO_ROCO_ROUTER_H_
#define ROCOSIM_ROUTER_ROCO_ROCO_ROUTER_H_

#include "check/slot_rules.h"
#include "router/crossbar.h"
#include "router/pipeline.h"
#include "router/roco/mirror_allocator.h"

namespace noc {

class RocoRouter final : public RouterPipeline<RocoRouter>
{
  public:
    RocoRouter(NodeId id, const SimConfig &cfg, const MeshTopology &topo,
               const RoutingAlgorithm &routing, const FaultMap *faults);

    RouterArch arch() const override { return RouterArch::Roco; }

    /** Flits buffered in one module (tests: guided-queuing placement). */
    int moduleOccupancy(Module m) const;
    /** The module's crossbar (tests: traversal attribution). */
    const Crossbar &crossbar(Module m) const
    {
        return xbar_[static_cast<int>(m)];
    }

  private:
    friend class RouterPipeline<RocoRouter>;

    // --- pipeline hooks (router/pipeline.h) -------------------------

    NOC_PHASE_FN(step) void beginCycle(Cycle now);
    /**
     * Guided queuing check, look-ahead for the next hop (plus the
     * double-routing cycle of a faulty RC unit), early ejection or
     * discard.
     */
    NOC_PHASE_FN(recv)
    void latchHead(PacketCtl &ctl, const Flit &f, int idx, Cycle now);
    /** True when no injection path can ever serve @p head. */
    bool injectionBlocked(const Flit &head) const;
    NOC_PHASE_FN(recv)
    int injectionVc(const Flit &head, Direction &lookahead);
    NOC_PHASE_FN(alloc)
    VaPick requestVc(const PacketCtl &ctl, const Flit &head,
                     VaRequest &req);
    /** Marks the module's VA arbiters busy (SA-to-VA offload). */
    NOC_PHASE_FN(alloc) void onVaGrant(const VaRequest &r);
    NOC_PHASE_FN(alloc) void allocateSwitch(Cycle now);

    // --- Table 1 / module policy -----------------------------------------

    int
    vcIndex(Module m, int port, int vc) const
    {
        const int set = static_cast<int>(m) * check::kPortsPerModule + port;
        return set * numVcs_ + vc;
    }

    /**
     * Injection slots @p head may claim toward candidate output @p d:
     * the Table 1 injection class of d's module, less the slots this
     * router's faults retired; 0 for a missing port.
     */
    std::uint64_t injectionSlots(Direction d, const Flit &head) const;

    /** Module output index (Row: E=0/W=1; Column: N=0/S=1). */
    static int outIndex(Direction d);
    static Direction outDirOf(Module m, int outIdx);

    /** The shipped Table 1 slot rule (check/slot_rules), tabulated. */
    check::RocoSlotTable slots_;
    /**
     * Slots retired by faults (Table 3 recycling; whole modules and
     * nodes included), here and behind each cardinal output. Faults
     * are applied before the routers are built and never change.
     */
    std::uint64_t deadHere_;
    std::uint64_t deadDown_[kNumCardinal] = {};
    Crossbar xbar_[2];        ///< one 2x2 per module
    MirrorAllocator sa_[2];
    NOC_OWNED_STATE(step, alloc)
    bool vaBusy_[2] = {false, false}; ///< VA arbiters used this cycle
};

} // namespace noc

#endif // ROCOSIM_ROUTER_ROCO_ROCO_ROUTER_H_
