#include "router/pathsensitive/ps_router.h"

#include <bit>

#include "check/slot_rules.h"

namespace noc {

PathSensitiveRouter::PathSensitiveRouter(NodeId id, const SimConfig &cfg,
                                         const MeshTopology &topo,
                                         const RoutingAlgorithm &routing,
                                         const FaultMap *faults)
    : RouterPipeline(id, cfg, topo, routing, faults,
                     VcLayout{cfg.vcsPerPort, cfg.bufferDepthModular,
                              kNumQuadrants * cfg.vcsPerPort,
                              /*perPortSlots=*/false, cfg.vcsPerPort}),
      xbar_(kNumQuadrants, kNumCardinal)
{
    NOC_ASSERT(numVcs_ == 3,
               "path sets hold one VC per previous direction (3)");
    for (int i = 0; i < kNumQuadrants; ++i)
        saSet_.emplace_back(numVcs_);
    for (int i = 0; i < kNumCardinal; ++i)
        saOut_.emplace_back(kNumQuadrants);
}

int
PathSensitiveRouter::quadrantOccupancy(Quadrant q) const
{
    int n = 0;
    for (int v = 0; v < numVcs_; ++v)
        n += in_[static_cast<int>(q) * numVcs_ + v].buf.occupancy();
    return n;
}

void
PathSensitiveRouter::latchHead(PacketCtl &ctl, const Flit &f, int idx,
                               Cycle)
{
    ctl.outDir = f.lookahead;
    NOC_ASSERT(isCardinal(ctl.outDir),
               "buffered flit must have a cardinal output");
    NOC_ASSERT(quadrantServes(static_cast<Quadrant>(idx / numVcs_),
                              ctl.outDir),
               "output outside the flit's quadrant");
    ctl.nextLa = computeLookahead(ctl.outDir, f);
    if (ctl.nextLa == Direction::Invalid || destinationDead(f)) {
        ctl.stage = PacketCtl::Stage::Drop; // discard at the fault
    } else if (ctl.nextLa == Direction::Local) {
        ctl.outSlot = kEjectSlot; // early ejection downstream
        ctl.stage = PacketCtl::Stage::Active;
    }
}

int
PathSensitiveRouter::injectionVc(const Flit &head, Direction &lookahead)
{
    Quadrant q =
        quadrantOf(topo_, id(), head.dst, (head.packetId & 1) != 0);
    // Claim a free VC from the quadrant pool (local demux reaches
    // the whole path set), highest VC first; quietly fails when the
    // set is full. Reuse a reservation this head already holds from a
    // stalled earlier attempt before claiming a new slot.
    std::uint64_t held = 0;
    std::uint64_t claimable = 0;
    int fs = 0;
    for (std::uint64_t m = check::psPoolMask(q, numVcs_); m; m &= m - 1) {
        const int idx = std::countr_zero(m);
        const InputVc &ivc = in_[static_cast<size_t>(idx)];
        if (ivc.reservedFrom == Direction::Local &&
            ivc.reservedPacket == head.packetId) {
            held |= 1ull << idx;
        } else if (ivc.reservedFrom == Direction::Invalid &&
                   reserveInputVc(idx, Direction::Local, head.packetId,
                                  true, fs)) {
            claimable |= 1ull << idx;
        }
    }
    const std::uint64_t pick = held ? held : claimable;
    const int target = static_cast<int>(std::bit_width(pick)) - 1;
    if (target < 0)
        return -1;
    // Choose the output among the quadrant's ports, preferring the
    // routing function's order.
    lookahead = Direction::Invalid;
    for (Direction d : routing_.route(id(), head)) {
        if (isCardinal(d) && hasPort(d) && quadrantServes(q, d)) {
            lookahead = d;
            break;
        }
    }
    if (lookahead == Direction::Invalid)
        return -1;
    reserveInputVc(target, Direction::Local, head.packetId, false, fs);
    return target;
}

PathSensitiveRouter::VaPick
PathSensitiveRouter::requestVc(const PacketCtl &ctl, const Flit &head,
                               VaRequest &req)
{
    ++act_.vaLocalArbs;
    Router *down = neighbor(ctl.outDir);
    NOC_ASSERT(down, "look-ahead across the mesh edge");
    const NodeId next = *topo_.neighbor(id(), ctl.outDir);
    if (faults_ && faults_->state(next).nodeDead)
        return VaPick::Drop; // nothing buffers in a dead node

    // The pooled VCs of the destination's quadrant at the downstream
    // router; an on-axis destination is served by both adjacent pools.
    const bool tb = (head.packetId & 1) != 0;
    const std::uint64_t elig =
        check::psPoolMask(quadrantOf(topo_, next, head.dst, tb), numVcs_) |
        check::psPoolMask(quadrantOf(topo_, next, head.dst, !tb), numVcs_);

    int best = -1;
    int bestCredits = -1;
    for (std::uint64_t m = elig; m; m &= m - 1) {
        const int sl = std::countr_zero(m);
        const OutputVc &o = outputVc(ctl.outDir, sl);
        if (o.busy)
            continue;
        int freeSpace = 0;
        if (!down->reserveInputVc(sl, opposite(ctl.outDir), ctl.owner,
                                  true, freeSpace)) {
            continue;
        }
        if (o.credits > bestCredits) {
            bestCredits = o.credits;
            best = sl;
        }
    }
    if (best < 0)
        return VaPick::Wait;
    req.dir = ctl.outDir;
    req.slot = best;
    req.nextLa = ctl.nextLa;
    return VaPick::Request;
}

void
PathSensitiveRouter::allocateSwitch(Cycle now)
{
    // Stage 1: each path set commits to one candidate head among its
    // SA-ready VCs before output conflicts are visible (the chained
    // dependency), and latches its winner's output into the stage-2
    // request masks before any commit mutates the queues.
    int setWin[kNumQuadrants] = {};
    std::uint64_t outReq[kNumCardinal] = {};    // bit q: set q wants out
    std::uint64_t outCommit[kNumCardinal] = {}; // ... non-speculatively
    unsigned outs = 0;                          // bit out: outReq[out] != 0
    const std::uint64_t setVcs = (1ull << numVcs_) - 1;
    for (int q = 0; q < kNumQuadrants; ++q) {
        const std::uint64_t ready =
            (stage_.saReady >> (q * numVcs_)) & setVcs;
        if (ready == 0)
            continue;
        const std::uint64_t spec = ready & (vaWon_ >> (q * numVcs_));
        const std::uint64_t mask = ready & ~spec;
        ++act_.saLocalArbs;
        setWin[q] = saSet_[q].arbitrate(mask ? mask : spec);
        const int out = static_cast<int>(vc(q, setWin[q]).ctl.front().outDir);
        outReq[out] |= 1ull << q;
        if (mask)
            outCommit[out] |= 1ull << q;
        outs |= 1u << out;
    }

    // Stage 2: 2:1 arbitration per output port between the two
    // adjacent quadrants; speculative requests yield to committed.
    for (; outs; outs &= outs - 1) {
        const int out = std::countr_zero(outs);
        const Direction outDir = static_cast<Direction>(out);
        const std::uint64_t mask = outReq[out];
        ++act_.saGlobalArbs;
        int winQ =
            saOut_[out].arbitrate(outCommit[out] ? outCommit[out] : mask);

        for (std::uint64_t req = mask; req; req &= req - 1)
            noteContention(isRow(outDir), std::countr_zero(req) != winQ);

        xbar_.traverse(winQ, out);
        commitTraversal(winQ * numVcs_ + setWin[winQ], outDir, now);
    }
}

} // namespace noc
