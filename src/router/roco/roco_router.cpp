#include "router/roco/roco_router.h"

#include <bit>
#include <string>

namespace noc {

RocoRouter::RocoRouter(NodeId id, const SimConfig &cfg,
                       const MeshTopology &topo,
                       const RoutingAlgorithm &routing,
                       const FaultMap *faults)
    : RouterPipeline(id, cfg, topo, routing, faults,
                     VcLayout{cfg.vcsPerPort, cfg.bufferDepthModular,
                              2 * check::kPortsPerModule * cfg.vcsPerPort,
                              /*perPortSlots=*/false,
                              check::kPortsPerModule * cfg.vcsPerPort}),
      slots_(check::RocoCheckOptions::shipped(routing.kind()),
             routing.kind()),
      deadHere_(check::rocoDeadSlotMask(faultState())),
      xbar_{Crossbar(2, 2), Crossbar(2, 2)},
      sa_{MirrorAllocator(cfg.vcsPerPort),
          MirrorAllocator(cfg.vcsPerPort)}
{
    NOC_ASSERT(numVcs_ == check::kVcsPerSet,
               "RoCo path sets carry exactly 3 VCs (Table 1)");
    if (faults) {
        for (int d = 0; d < kNumCardinal; ++d) {
            if (auto nb = topo.neighbor(id, static_cast<Direction>(d)))
                deadDown_[d] = check::rocoDeadSlotMask(faults->state(*nb));
        }
    }
}

int
RocoRouter::moduleOccupancy(Module m) const
{
    int n = 0;
    for (int p = 0; p < check::kPortsPerModule; ++p) {
        for (int v = 0; v < numVcs_; ++v)
            n += in_[vcIndex(m, p, v)].buf.occupancy();
    }
    return n;
}

int
RocoRouter::outIndex(Direction d)
{
    switch (d) {
      case Direction::East: return 0;
      case Direction::West: return 1;
      case Direction::North: return 0;
      case Direction::South: return 1;
      default:
        NOC_ASSERT(false, "module output for non-cardinal direction");
        return -1;
    }
}

Direction
RocoRouter::outDirOf(Module m, int outIdx)
{
    if (m == Module::Row)
        return outIdx == 0 ? Direction::East : Direction::West;
    return outIdx == 0 ? Direction::North : Direction::South;
}

void
RocoRouter::beginCycle(Cycle)
{
    xbar_[0].beginCycle();
    xbar_[1].beginCycle();
    vaBusy_[0] = vaBusy_[1] = false;
}

std::uint64_t
RocoRouter::injectionSlots(Direction d, const Flit &head) const
{
    if (!isCardinal(d) || !hasPort(d))
        return 0;
    return slots_.mask(Direction::Local, d, head.yxOrder) & ~deadHere_;
}

bool
RocoRouter::injectionBlocked(const Flit &head) const
{
    if (destinationDead(head))
        return true;
    // Statically blocked when no candidate direction keeps a surviving
    // injection slot (a dead module keeps none).
    for (Direction d : routing_.route(id(), head)) {
        if (injectionSlots(d, head) != 0)
            return false;
    }
    return true;
}

void
RocoRouter::latchHead(PacketCtl &ctl, const Flit &f, int idx, Cycle now)
{
    const Module m = static_cast<Module>(moduleOfVc(idx));
    NOC_ASSERT(!faultState().isModuleDead(m),
               "flit steered into a dead module");
    ctl.outDir = f.lookahead;
    NOC_ASSERT(isCardinal(ctl.outDir),
               "buffered flit must have a cardinal output");
    // Path-set discipline: a flit steered into the row module must
    // request a row output and vice versa (guided flit queuing).
    NOC_INVARIANT(
        !isCardinal(ctl.outDir) || moduleOf(ctl.outDir) == m,
        check::InvariantKind::PathSetDiscipline, now, id(), ctl.srcDir,
        idx % numVcs_,
        std::string("flit of packet ") + std::to_string(f.packetId) +
            " buffered in the " + (m == Module::Row ? "row" : "column") +
            " module requests output " + toString(ctl.outDir));
    NOC_ASSERT(moduleOf(ctl.outDir) == m,
               "guided queuing placed a flit in the wrong module");
    // Look-ahead routing for the next hop happens as the head is
    // latched; a faulty local RC unit adds the double-routing
    // handshake cycle (Section 4, Figure 5).
    ctl.nextLa = computeLookahead(ctl.outDir, f);
    ctl.vaEligible = faultState().rcFaulty ? now + 1 : now;
    if (ctl.nextLa == Direction::Invalid || destinationDead(f)) {
        // Every minimal next hop is behind a hard fault: discard.
        ctl.stage = PacketCtl::Stage::Drop;
    } else if (ctl.nextLa == Direction::Local) {
        // Ejection at the next router happens before its modules;
        // no downstream VC is ever allocated (early ejection).
        ctl.outSlot = kEjectSlot;
        ctl.stage = PacketCtl::Stage::Active;
    }
}

int
RocoRouter::injectionVc(const Flit &head, Direction &lookahead)
{
    // Choose the first direction with a free injection slot;
    // candidates come in routing preference order (adaptive lists
    // the X option first).
    for (Direction d : routing_.route(id(), head)) {
        for (std::uint64_t m = injectionSlots(d, head); m; m &= m - 1) {
            const int idx = std::countr_zero(m);
            if (in_[static_cast<size_t>(idx)].ctl.empty()) {
                lookahead = d;
                return idx;
            }
        }
    }
    return -1; // no free injection VC this cycle
}

RocoRouter::VaPick
RocoRouter::requestVc(const PacketCtl &ctl, const Flit &head,
                      VaRequest &req)
{
    // Separable VA over the module's smaller arbiters (Figure 2b):
    // each waiting head picks its best eligible downstream slot.
    if (faultState().isModuleDead(moduleOf(ctl.outDir)))
        return VaPick::Wait; // dead module: VCs frozen
    ++act_.vaLocalArbs;

    // Stage 1: pick the (look-ahead direction, slot) pair with the
    // most downstream credits.  Under adaptive routing the
    // look-ahead choice is re-scored on every attempt from the
    // credit state the router already tracks — this is where the
    // RoCo design's adaptivity actually bites.
    DirectionSet laCands;
    if (routingKind() == RoutingKind::Adaptive)
        laCands = lookaheadCandidates(ctl.outDir, head);
    else
        laCands.push(ctl.nextLa);
    if (laCands.empty())
        return VaPick::Drop;

    Router *down = neighbor(ctl.outDir);
    NOC_ASSERT(down, "look-ahead across the mesh edge");
    const Direction arrivalAtDown = opposite(ctl.outDir);
    const std::uint64_t deadDown = deadDown_[static_cast<int>(ctl.outDir)];

    int best = -1;
    int bestCredits = -1;
    Direction bestLa = ctl.nextLa;
    std::uint64_t statically = 0; // eligible slots, free or not
    for (Direction la : laCands) {
        const std::uint64_t elig =
            slots_.mask(arrivalAtDown, la, head.yxOrder) & ~deadDown;
        statically |= elig;
        for (std::uint64_t m = elig; m; m &= m - 1) {
            const int s = std::countr_zero(m);
            const OutputVc &o = outputVc(ctl.outDir, s);
            if (o.busy)
                continue;
            int freeSpace = 0;
            if (!down->reserveInputVc(s, arrivalAtDown, ctl.owner, true,
                                      freeSpace)) {
                continue; // another link holds the slot
            }
            if (o.credits > bestCredits) {
                bestCredits = o.credits;
                best = s;
                bestLa = la;
            }
        }
    }
    if (best < 0) {
        // Distinguish transient contention from static blockage:
        // a head with no *statically* eligible slot for any
        // look-ahead candidate can never progress.
        return statically == 0 ? VaPick::Drop : VaPick::Wait;
    }
    req.dir = ctl.outDir;
    req.slot = best;
    req.nextLa = bestLa;
    return VaPick::Request;
}

void
RocoRouter::onVaGrant(const VaRequest &r)
{
    // The VA arbiters actually fired: a degraded SA cannot borrow
    // them this cycle (Figure 7).
    vaBusy_[static_cast<int>(moduleOf(r.dir))] = true;
}

void
RocoRouter::allocateSwitch(Cycle now)
{
    for (int mi = 0; mi < 2; ++mi) {
        Module m = static_cast<Module>(mi);
        const NodeFaultState &fs = faultState();
        if (fs.isModuleDead(m))
            continue;

        // The module's SA-ready VCs request their packets' outputs;
        // those that won VA this cycle request speculatively.
        const int moduleSlots = check::kPortsPerModule * numVcs_;
        const int base = mi * moduleSlots;
        std::uint64_t ready =
            (stage_.saReady >> base) & ((1ull << moduleSlots) - 1);
        if (ready == 0)
            continue; // allocate() is a stateless no-op with no requests
        const std::uint64_t won = vaWon_ >> base;

        std::uint64_t reqs[2][2] = {{0, 0}, {0, 0}};
        std::uint64_t specReqs[2][2] = {{0, 0}, {0, 0}};
        for (; ready; ready &= ready - 1) {
            const int local = std::countr_zero(ready);
            const int p = local / numVcs_;
            const int out = outIndex(
                in_[static_cast<size_t>(base + local)].ctl.front().outDir);
            ((won >> local) & 1 ? specReqs : reqs)[p][out] |=
                1ull << (local % numVcs_);
        }

        // SA fault: grants ride the VA's idle arbiters (Figure 7) —
        // one grant at most, and none while the VA is busy.
        int maxGrants = 2;
        if (fs.saDegraded[mi])
            maxGrants = vaBusy_[mi] ? 0 : 1;

        MirrorAllocator::Grant grants[2];
        MirrorAllocator::ArbOps ops;
        int n = sa_[mi].allocate(reqs, specReqs, maxGrants, grants, ops);
        act_.saLocalArbs += ops.local;
        act_.saGlobalArbs += ops.global;
        act_.saMirrorTies += ops.ties;

        // Contention probes: a port with requests either sends or is
        // blocked this cycle.
        for (int p = 0; p < check::kPortsPerModule; ++p) {
            if ((reqs[p][0] | reqs[p][1] | specReqs[p][0] |
                 specReqs[p][1]) == 0)
                continue;
            bool granted = false;
            for (int g = 0; g < n; ++g)
                granted = granted || grants[g].port == p;
            noteContention(m == Module::Row, !granted);
        }

        for (int g = 0; g < n; ++g) {
            const MirrorAllocator::Grant &gr = grants[g];
            xbar_[mi].traverse(gr.port, gr.out);
            commitTraversal(vcIndex(m, gr.port, gr.vc),
                            outDirOf(m, gr.out), now);
        }
    }
}

} // namespace noc
