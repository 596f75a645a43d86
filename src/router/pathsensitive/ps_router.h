/**
 * @file
 * The Path-Sensitive router (Kim et al., DAC 2005 — the paper's second
 * baseline, Section 2).
 *
 * Four ports with look-ahead routing and early ejection. VCs are
 * grouped into four quadrant path sets (NE/NW/SE/SW by destination);
 * each set holds one VC per possible previous direction (horizontal
 * arrival, vertical arrival, local injection). A decomposed 4x4
 * crossbar with half the cross-points of a full switch connects each
 * path set to the two outputs of its quadrant.
 *
 * Switch allocation arbitrates per path set first (a v:1 arbiter picks
 * one head regardless of which of the set's two outputs it wants) and
 * then 2:1 per output port. Because the set commits to one candidate
 * before output conflicts are known, requests exhibit the chained
 * dependency the paper analyses: only 2 of 16 request patterns achieve
 * a non-blocking maximal matching (Table 2).
 */
#ifndef ROCOSIM_ROUTER_PATHSENSITIVE_PS_ROUTER_H_
#define ROCOSIM_ROUTER_PATHSENSITIVE_PS_ROUTER_H_

#include <vector>

#include "router/arbiter.h"
#include "router/crossbar.h"
#include "router/pipeline.h"
#include "routing/quadrant.h"

namespace noc {

class PathSensitiveRouter final : public RouterPipeline<PathSensitiveRouter>
{
  public:
    PathSensitiveRouter(NodeId id, const SimConfig &cfg,
                        const MeshTopology &topo,
                        const RoutingAlgorithm &routing,
                        const FaultMap *faults);

    RouterArch arch() const override { return RouterArch::PathSensitive; }

    /** Flits buffered in one quadrant path set (tests). */
    int quadrantOccupancy(Quadrant q) const;

    /** The decomposed crossbar (tests: traversal attribution). */
    const Crossbar &crossbar() const { return xbar_; }

  private:
    friend class RouterPipeline<PathSensitiveRouter>;

    // --- pipeline hooks (router/pipeline.h) -------------------------

    NOC_PHASE_FN(step) void beginCycle(Cycle) { xbar_.beginCycle(); }
    /** Look-ahead for the next hop; early ejection or discard. */
    NOC_PHASE_FN(recv)
    void latchHead(PacketCtl &ctl, const Flit &f, int idx, Cycle now);
    NOC_PHASE_FN(recv)
    int injectionVc(const Flit &head, Direction &lookahead);
    NOC_PHASE_FN(alloc)
    VaPick requestVc(const PacketCtl &ctl, const Flit &head,
                     VaRequest &req);
    NOC_PHASE_FN(alloc) void allocateSwitch(Cycle now);

    // --- path-set policy -----------------------------------------------

    InputVc &vc(int q, int v) { return in_[q * numVcs_ + v]; }

    Crossbar xbar_;
    std::vector<RoundRobinArbiter> saSet_; ///< stage 1, per path set
    std::vector<RoundRobinArbiter> saOut_; ///< stage 2, per output
};

} // namespace noc

#endif // ROCOSIM_ROUTER_PATHSENSITIVE_PS_ROUTER_H_
