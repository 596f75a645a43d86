/**
 * @file
 * Generic two-stage speculative virtual-channel router (Figure 1a).
 *
 * Five ports (N/E/S/W/PE), v VCs per port, one monolithic 5x5 crossbar.
 * Stage 1 performs routing computation, VC allocation and (speculative)
 * switch allocation in parallel; stage 2 is switch traversal.  This is
 * the paper's first baseline.
 *
 * VC allocation is separable (input-first then output arbitration per
 * output VC, 5v:1 in the worst case — Figure 2a); switch allocation is
 * the classic two stages: a v:1 arbiter per input port, then a 5:1
 * arbiter per output port.
 *
 * Deadlock freedom: XY is dimension-ordered; XY-YX partitions the VCs
 * by dimension order; adaptive routing is minimal west-first
 * (turn-model safe with unrestricted VC usage).
 */
#ifndef ROCOSIM_ROUTER_GENERIC_GENERIC_ROUTER_H_
#define ROCOSIM_ROUTER_GENERIC_GENERIC_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "router/arbiter.h"
#include "router/crossbar.h"
#include "router/pipeline.h"

namespace noc {

class GenericRouter final : public RouterPipeline<GenericRouter>
{
  public:
    GenericRouter(NodeId id, const SimConfig &cfg, const MeshTopology &topo,
                  const RoutingAlgorithm &routing, const FaultMap *faults);

    RouterArch arch() const override { return RouterArch::Generic; }

    /** Input VCs plus flits in the switch-traversal ejection pipe. */
    int bufferedFlits() const override;

  private:
    friend class RouterPipeline<GenericRouter>;

    // --- pipeline hooks (router/pipeline.h) -------------------------

    NOC_PHASE_FN(step) void beginCycle(Cycle now);
    NOC_PHASE_FN(recv) int injectionVc(const Flit &head, Direction &);
    NOC_PHASE_FN(alloc)
    VaPick requestVc(const PacketCtl &, const Flit &head, VaRequest &req);
    NOC_PHASE_FN(alloc) void allocateSwitch(Cycle now);
    /** Output VC state, including the PE-side VCs behind Local. */
    OutputVc &outSlot(Direction d, int slot);
    /** Link traversal, or the ST pipe toward the PE for Local. */
    NOC_PHASE_FN(send)
    void forward(Direction outDir, const PacketCtl &ctl, Flit &f,
                 Cycle now);

    // --- generic policy ------------------------------------------------

    InputVc &vc(int port, int v) { return in_[port * numVcs_ + v]; }

    /**
     * Picks the (direction, output slot) request for a waiting head, or
     * false when nothing is available this cycle: the slots the slot
     * rules allow, chosen by adaptive credit-based selection.
     */
    bool pickVcRequest(const Flit &head, Direction &dirOut, int &slotOut);

    /**
     * Service-mode request/reply injection partition (src/svc): when
     * the class-VC partition is in force, the slot rules split the
     * Local VCs by dimension order (check::genericSvcSlotMask). Off in
     * every non-service configuration, so baselines are untouched.
     */
    bool svcInjPartition_;
    NOC_OWNED_STATE(recv, alloc, send)
    std::vector<OutputVc> localOut_;   ///< PE-side output VCs (inf credits)
    Crossbar xbar_;
    /**
     * PE-bound flits pass through switch traversal like any other
     * output (no early ejection in the generic design): an arrival-slot
     * ring of hopDelay - 1 cycles models the ST stage before the NIC
     * sees the flit. At hopDelay 1 that delay is zero and forward()
     * hands the flit straight to the NIC.
     */
    SlotClock ejectClock_;
    Flit ejectSlots_[kMaxLinkSlots];
    /** Occupied eject slots. Router-private: atomic only because the
     *  link helpers of topology/channel.h take the receiver word. */
    std::atomic<std::uint8_t> ejectOcc_{0};

    std::vector<RoundRobinArbiter> saPort_;  ///< stage 1, per input port
    std::vector<RoundRobinArbiter> saOut_;   ///< stage 2, per output port
};

} // namespace noc

#endif // ROCOSIM_ROUTER_GENERIC_GENERIC_ROUTER_H_
